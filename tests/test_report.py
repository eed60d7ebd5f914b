"""Report objects: the fields a failure carries and a fresh child list per
report."""

from __future__ import annotations

from biparts.report import CheckReport, Fault, Mismatch, Recorder, combine


def test_reports_built_without_children_do_not_share_a_list():
    first, second = CheckReport("a", 1, True), CheckReport("b", 1, True)
    first.children.append(CheckReport("a.leaf", 1, True))
    assert second.children == []
    assert combine("c", 1, [first]).children == [first]


def test_constructor_order_and_defaults():
    mismatch = Mismatch((3,), 1, 2, "n")
    report = CheckReport("a", 5, False, mismatch, 0.5, note="title")
    fields = [report.name, report.bound, report.passed, report.mismatch, report.elapsed]
    assert fields == ["a", 5, False, mismatch, 0.5]
    assert (report.children, report.note) == ([], "title")
    bare = CheckReport("b", 0, True)
    assert (bare.mismatch, bare.elapsed, bare.children, bare.note) == (None, 0.0, [], "")


def test_subclass_forwards_every_argument():
    # a wrapper that marks each report it makes, as a tracer does
    made = []

    class Marked(CheckReport):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            made.append(self)

    report = Marked("a", 2, True, None, 0.25, note="title")
    assert made == [report]
    assert (report.elapsed, report.note) == (0.25, "title")


def test_mismatch_fields_and_description():
    mismatch = Mismatch((3, -1), 5, 7, "q,z")
    assert (mismatch.location, mismatch.lhs, mismatch.rhs, mismatch.kind) == ((3, -1), 5, 7, "q,z")
    assert mismatch.describe() == "first mismatch at q^3 z^-1: 5 != 7"
    assert Mismatch((4,), 1, 0, "n").describe() == "first mismatch at n=4: 1 != 0"
    assert Mismatch((2,), 1, 0, "index").describe() == "first mismatch at index 2: 1 != 0"


def test_compare_counts_the_triples_it_compared():
    recorder = Recorder()
    leaf = recorder.compare("a", "title", 9, ((n, n, n) for n in range(7)))
    assert (leaf.passed, leaf.compared) == (True, 7)
    assert leaf.to_dict()["compared"] == 7
    assert "compared nothing" not in leaf.render()
    # the count stops at the first mismatch, which it includes
    leaf = recorder.compare("a", "title", 9, ((n, n, n + (n == 3)) for n in range(7)))
    assert (leaf.passed, leaf.compared) == (False, 4)
    # a faulted triple is compared like any other
    faulted = Recorder(Fault("a.lhs", (2,), 1)).compare("a", "title", 9, [(n, 0, 0) for n in range(5)])
    assert (faulted.passed, faulted.compared) == (False, 3)


def test_a_leaf_that_compares_nothing_says_so():
    leaf = Recorder().compare("a", "title", 0, iter(()))
    assert (leaf.passed, leaf.compared) == (True, 0)
    assert leaf.to_dict()["compared"] == 0
    line = leaf.render()
    assert line.startswith("PASS  a (bound=0) [") and line.endswith("s] - title - compared nothing")
    # an aggregate carries no count of its own
    aggregate = combine("b", 0, [leaf])
    assert aggregate.compared is None and "compared" not in aggregate.to_dict()
    assert "compared nothing" not in aggregate.render().splitlines()[0]
