"""Every artifact of the battery in `artifact_battery.py` against its record."""

import pytest

import artifact_battery as battery

PLATFORM, RECORDS = battery.load()


def test_the_battery_is_the_recorded_list():
    assert [record["argv"] for record, _ in RECORDS] == battery.commands()


def test_every_artifact_matches_its_record():
    # bytes where the records were made; elsewhere layouts and exit codes,
    # and numbers within 1e-12 max(1, |v|)
    exact = battery.platform() == PLATFORM
    mismatches = []
    for want, want_values in RECORDS:
        got, got_values = battery.run(want["argv"], parse=not exact)
        if diffs := battery.compare(want, want_values, got, got_values, exact):
            mismatches.append(f"{','.join(diffs)}: {' '.join(want['argv'])}")
    assert not mismatches, "\n".join(mismatches)


@pytest.fixture(scope="module")
def recorded_run():
    """The record of a verify command that fails a check, and a fresh run."""
    argv = ["verify", "--suite", "time-evolution", "--tol-scale", "0"]
    want, want_values = next(r for r in RECORDS if r[0]["argv"] == argv)
    assert want["exit"] == 1 and want["stderr"]
    return want, want_values, *battery.run(argv)


def test_a_foreign_platform_compares_numbers_within_tolerance(recorded_run):
    want, want_values, got, got_values = recorded_run
    assert battery.compare(want, want_values, got, got_values, exact=False) == []
    scale = 1e-12 * max(1.0, abs(got_values[-1]))
    for step, diffs in ((0.5 * scale, []), (2.0 * scale, ["numbers"])):
        nudged = got_values.copy()
        nudged[-1] += step
        assert battery.compare(want, want_values, got, nudged, exact=False) == diffs


@pytest.mark.parametrize(
    "field, change, diff",
    [
        ("exit", lambda v: 0, "exit"),
        ("layout", lambda v: "0" * 64, "layout"),
        # the FAIL line's measured value, its exponent given one more digit
        ("stderr", lambda v: [v[0].replace(" > ", "1 > ")], "stderr"),
        ("warnings", lambda v: v + ["overflow encountered in exp"], "warnings"),
    ],
)
def test_a_foreign_platform_still_compares_everything_else(recorded_run, field, change, diff):
    want, want_values, got, got_values = recorded_run
    got = dict(got, **{field: change(got[field])})
    assert battery.compare(want, want_values, got, got_values, exact=False) == [diff]
