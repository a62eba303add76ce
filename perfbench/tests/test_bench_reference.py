import pytest

from reference import ReferenceClock, setup_kernel


def test_units_divide_each_gap_by_its_neighbouring_kernel_runs():
    clock = ReferenceClock(3)
    # kernel runs of 10, 30 and 20 ns around program gaps of 100 and 50 ns
    clock.marks = [(0, 10), (110, 140), (190, 210)]
    assert clock.gaps() == [(10, 110, 20.0), (140, 190, 25.0)]
    assert clock.seconds(0, 210) == pytest.approx(150e-9)
    assert clock.units(0, 210) == pytest.approx(100 / 20 + 50 / 25)
    # an interval that spans a kernel run counts only the program time
    assert clock.seconds(60, 160) == pytest.approx(70e-9)
    assert clock.units(60, 160) == pytest.approx(50 / 20 + 20 / 25)


def test_sampling_records_kernel_runs():
    clock = ReferenceClock(20)
    clock.sample()
    clock.sample_if_due()  # less than a period has passed
    assert len(clock.marks) == 1
    start, end = clock.marks[0]
    assert end > start and clock.kernel_seconds()[0] > 0


def test_setup_kernel_repeats_its_work():
    assert setup_kernel() == setup_kernel() > 1500
