"""Self-test of the benchmark at a tiny size; run from the repository root:

    python3 -m pytest perfbench
"""

import run


def test_smoke():
    assert run.smoke() == []


def test_rank_auc_counts_ties_as_half():
    import numpy as np

    scores = np.array([0.1, 0.4, 0.4, 0.8])
    truth = np.array([0, 0, 1, 1])
    # pairs (pos, neg): (0.4, 0.1) win, (0.4, 0.4) tie, (0.8, *) two wins
    assert run.rank_auc(scores, truth) == 3.5 / 4
