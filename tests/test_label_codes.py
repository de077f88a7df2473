"""Property tests of the label codes the basis search writes its rows on,
drawn by hypothesis: the int order of the codes is the column order
(level, label), on every rank up to 8 and on negative coordinates."""
import pytest

from fusionring import build_root_system
from fusionring import twisted

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

SMALL = hypothesis.settings(max_examples=200, deadline=None, derandomize=True,
                            database=None)
# one group per rank 1..8, with comarks above 1 from rank 2 on
GROUPS = ["A1", "B2", "C3", "D4", "B5", "E6", "E7", "E8"]
LIMIT = twisted._HALF - 1
coordinates = st.one_of(st.integers(-6, 6), st.integers(-LIMIT, LIMIT))


@SMALL
@hypothesis.given(st.data())
def test_code_order_is_the_level_label_order(data):
    rs = build_root_system(data.draw(st.sampled_from(GROUPS)))
    key = twisted._label_key(rs)
    labels = data.draw(st.lists(st.tuples(*[coordinates] * rs.rank), min_size=2,
                                max_size=12))
    a, b = labels[:2]
    assert (key(a) < key(b)) == ((rs.level(a), a) < (rs.level(b), b))
    assert (key(a) == key(b)) == (a == b)
    assert sorted(labels, key=key) == sorted(labels, key=lambda m: (rs.level(m), m))
