"""The randomized verification harness itself: coverage and determinism."""

from digitop.verify import SUITES, run_suites


def test_all_suites_pass():
    results = run_suites(["all"], seed=2024)
    failures = [r.line() for r in results if not r.passed]
    assert not failures, failures
    names = {r.name.split("/", 1)[0] for r in results}
    assert names == set(SUITES)


def test_deterministic_for_fixed_seed():
    first = [r.line() for r in run_suites(["homotopy", "cycles"], seed=5, samples=40)]
    second = [r.line() for r in run_suites(["homotopy", "cycles"], seed=5, samples=40)]
    assert first == second


def test_seed_changes_sampling_not_verdicts():
    for seed in (1, 2):
        assert all(r.passed for r in run_suites(["diameter"], seed=seed, samples=30))


def test_unknown_suite_rejected():
    import pytest

    with pytest.raises(ValueError):
        run_suites(["nonsense"], seed=0)


def test_counts_below_one_rejected():
    import pytest

    for kwargs in ({"samples": 0}, {"samples": -3}, {"max_points": 0}, {"max_points": -1}):
        with pytest.raises(ValueError, match="positive"):
            run_suites(["cardinality", "induced"], seed=0, **kwargs)


def test_explicit_counts_are_used():
    from digitop.verify import suite_diameter
    import random

    [bound, _] = suite_diameter(random.Random(0), max_points=2, samples=1)
    assert bound.passed and bound.details == "1 samples"


def test_hausdorff_suite_lines():
    results = run_suites(["hausdorff"], seed=0, samples=10)
    assert [r.line() for r in results] == [
        "PASS hausdorff/full-distance-is-hausdorff",
        "PASS hausdorff/connected-distance-at-least-hausdorff",
        "PASS hausdorff/full-eccentricity-closed-form",
        "PASS hausdorff/connected-eccentricity-lower-bound",
    ]


def test_forced_failures_print_their_findings(monkeypatch):
    """Each form of FAIL line, with a library call broken on purpose: a claim
    that reports its first finding, the cardinality claim's own text and a
    claim that names what it saw."""
    from digitop import verify

    monkeypatch.setattr(verify, "homotopic", lambda f, g: None)
    lines = [r.line() for r in run_suites(["homotopy"], seed=0, samples=20)]
    failed = [line for line in lines if not line.startswith("PASS")]
    assert failed == [
        "FAIL homotopy/component-search-matches-table-oracle: first "
        "[(<map (1, 2)->(0, 3), (3, 2)->(0, 3)>, <map (1, 2)->(0, 3), (3, 2)->(0, 3)>)]",
        "FAIL homotopy/cycle-rotation-homotopy: rotation pair (4,4)",
    ]
    assert len(lines) == 9

    everything = verify.enumerate_all_subsets
    monkeypatch.setattr(verify, "enumerate_all_subsets", lambda X: everything(X).masks[1:])
    assert [r.line() for r in run_suites(["cardinality"], seed=0, samples=3)] == [
        "FAIL cardinality/full-hyperspace-cardinality: failed for intervals "
        "n=[1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12]; images "
        "[DigitalImage(dim=1, points=((0,), (1,), (2,), (3,), (4,)), adjacency=1), "
        "DigitalImage(dim=2, points=((0, 0), (1, 0), (2, 0), (2, 3), (3, 1)), adjacency=2), "
        "DigitalImage(dim=2, points=((1, 2), (2, 1), (2, 2)), adjacency=1)]",
        "PASS cardinality/interval-connected-count",
        "PASS cardinality/interval-triangle-isomorphism",
    ]
    # a member dropped only from images of more than one dimension: every interval passes
    monkeypatch.setattr(verify, "enumerate_all_subsets",
                        lambda X: everything(X).masks[X.dim > 1:])
    assert run_suites(["cardinality"], seed=0, samples=3)[0].line() == (
        "FAIL cardinality/full-hyperspace-cardinality: failed for intervals n=[]; images "
        "[DigitalImage(dim=2, points=((0, 0), (1, 0), (2, 0), (2, 3), (3, 1)), adjacency=2), "
        "DigitalImage(dim=2, points=((1, 2), (2, 1), (2, 2)), adjacency=1)]")


def test_max_points_reaches_every_draw(monkeypatch, capsys):
    """``--max-points`` caps every random image a suite draws; the claims that
    draw smaller images keep their offset below it, floored at 1."""
    from digitop import verify
    from digitop.cli import main

    caps, sizes = [], []

    def recording(draw):
        def wrapped(rng, max_points, **kwargs):
            X = draw(rng, max_points, **kwargs)
            caps.append(max_points)
            sizes.append(len(X))
            return X
        return wrapped

    for name in ("random_image", "random_connected_image"):
        monkeypatch.setattr(verify, name, recording(getattr(verify, name)))
    assert main(["verify", "--suite", "homotopy", "--max-points", "6", "--samples", "20"]) == 0
    assert capsys.readouterr().out.endswith("9/9 checks passed (seed 0)\n")
    assert set(caps) == {6, 7} and max(sizes) > 3
    for max_points, want in ((6, {5, 6}), (1, {1})):
        caps.clear()
        results = run_suites(["induced", "multivalued"], seed=0, max_points=max_points, samples=20)
        assert all(r.passed for r in results)
        assert set(caps) == want
