import math

from hypothesis import given, settings, strategies as st

from stable_msu.util import bisect_log


@st.composite
def _brackets(draw):
    """(lo, hi, c) with 0 < lo < c < hi, hi / lo up to 1e12."""
    lo = draw(st.floats(min_value=1e-12, max_value=1e12))
    hi = lo * draw(st.floats(min_value=1.0 + 1e-9, max_value=1e12))
    c = draw(st.floats(min_value=lo, max_value=hi,
                       exclude_min=True, exclude_max=True))
    return lo, hi, c


class TestBisectLog:
    @given(_brackets(), st.integers(min_value=0, max_value=80))
    @settings(max_examples=300, deadline=None)
    def test_brackets_the_threshold(self, bracket, steps):
        lo, hi, c = bracket
        calls = []

        def below(x):
            calls.append(x)
            return x < c

        a, b = bisect_log(below, lo, hi, steps)
        assert lo <= a < c <= b <= hi
        # every step halves the bracket in log x until the midpoint
        # rounds onto an end, which it does at adjacent doubles
        assert len(calls) == steps or math.nextafter(a, math.inf) == b
        assert len(calls) <= steps

    def test_adjacent_doubles_stop_at_once(self):
        # below is never called: it would raise
        hi = math.nextafter(1.0, 2.0)
        assert bisect_log(lambda x: 1 / 0, 1.0, hi) == (1.0, hi)

    def test_sixty_steps_reach_adjacent_doubles(self):
        # a factor-4 bracket narrows to one ulp in about 53 steps
        lo, hi = bisect_log(lambda x: x * x < 2.0, 0.5, 2.0)
        assert math.nextafter(lo, math.inf) == hi
        assert lo < math.sqrt(2.0) <= hi
