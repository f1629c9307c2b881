"""The false-alarm rule of the seeded statistical tests, in one place.

A test that holds Monte Carlo estimates to their exact values checks each
within z standard errors, with z chosen so that the test as a whole
raises a false alarm at a stated rate.
"""

from statistics import NormalDist

# Checks of a Monte Carlo mean against its exact value raise a false alarm
# at this rate per test, two-sided, split evenly over the test's checks
# (the normal quantile perfbench's mc_z takes).
FALSE_ALARM_PER_TEST = 1e-6


def z_for(checks: int) -> float:
    """The two-sided normal quantile that keeps ``checks`` checks of one
    test at ``FALSE_ALARM_PER_TEST`` false alarms in all."""
    return NormalDist().inv_cdf(1.0 - FALSE_ALARM_PER_TEST / (2.0 * checks))
