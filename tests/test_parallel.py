import numpy as np
import pytest

from nsl import (
    EnergySpec,
    KernelSpec,
    ScalarField,
    SpaceSpec,
    build_space,
    g_scale,
    gagliardo_p,
    mollify,
    nguyen_a,
    nguyen_b,
    scale_energies,
    scale_s_by_balls,
    set_workers,
)
from nsl.parallel import BLOCK_ROWS, block_reduce, get_workers, row_blocks, tree_sum
from nsl.verify import check_annuli_bound, check_fubini_identity, check_nguyen_averaging


@pytest.fixture(autouse=True)
def reset_workers():
    yield
    set_workers(1)


class TestPrimitives:
    def test_blocks_cover_range_disjointly(self):
        for n in (1, 5, BLOCK_ROWS, BLOCK_ROWS + 1, 1000):
            blocks = row_blocks(n)
            covered = [i for a, b in blocks for i in range(a, b)]
            assert covered == list(range(n))

    def test_partition_independent_of_workers(self):
        # the partition is a function of n only
        assert row_blocks(777) == row_blocks(777)

    def test_tree_sum_deterministic_association(self):
        xs = [0.1, 0.2, 0.3, 0.4, 0.5]
        expected = ((0.1 + 0.2) + (0.3 + 0.4)) + 0.5
        assert tree_sum(xs) == expected

    def test_tree_sum_empty(self):
        with pytest.raises(ValueError):
            tree_sum([])

    def test_block_reduce_worker_invariance(self):
        rng = np.random.default_rng(5)
        data = rng.normal(size=1000)

        def fn(a, b):
            return float(np.sum(np.sin(data[a:b]) ** 2))

        results = {w: block_reduce(1000, fn, workers=w) for w in (1, 2, 3, 8)}
        assert len({repr(v) for v in results.values()}) == 1

    def test_worker_count_validation(self):
        with pytest.raises(ValueError):
            set_workers(0)

    def test_env_override(self, monkeypatch):
        set_workers(4)
        monkeypatch.setenv("NSL_WORKERS", "2")
        assert get_workers() == 2
        monkeypatch.setenv("NSL_WORKERS", "zero")
        with pytest.raises(ValueError, match="integer"):
            get_workers()
        monkeypatch.delenv("NSL_WORKERS")
        assert get_workers() == 4


class TestEnergyDeterminism:
    def test_energies_bit_identical_across_workers(self):
        sp = build_space(SpaceSpec("circle", n=300))  # several row blocks
        rng = np.random.default_rng(9)
        u = ScalarField(np.sin(sp.coords[:, 0]) + 0.2 * rng.normal(size=300))
        iv = build_space(SpaceSpec("interval", n=300))  # the row route, several row blocks
        v, rho1 = ScalarField(np.sin(5.0 * iv.coords[:, 0])), KernelSpec("rho1")
        outputs = []
        for w in (1, 2, 8):
            set_workers(w)
            checks = (check_annuli_bound(iv, rho1, 2.0, [0.05, 0.2]),
                      check_fubini_identity(iv, v, 2.0, 0.7, rho1),
                      check_nguyen_averaging(iv, v, 2.0, 0.5, 0.4, rho1))
            records = [(repr(r.lhs), repr(r.rhs), r.note) for rep in checks for r in rep.records]
            g = gagliardo_p(sp, u, EnergySpec(p=2, s=0.7, kernel=KernelSpec("rho1")))
            a = nguyen_a(sp, u, EnergySpec(p=2, delta=0.3, kernel=KernelSpec("rho1")))
            b = nguyen_b(sp, u, EnergySpec(p=2, delta=0.3, r=0.8, kernel=KernelSpec("rho1")))
            se = scale_energies(sp, u, EnergySpec(p=2, t=0.4, kernel=KernelSpec("rho1")))
            m = mollify(sp, u, 0.3)
            # the ball block product: S_t at p = 3, and g_t truncated at a cap r
            s3 = scale_s_by_balls(sp, u, EnergySpec(p=3, t=0.4))
            gt = g_scale(sp, u, EnergySpec(p=1, t=1.5, r=0.5), mode="truncated")
            outputs.append((repr(g), repr(a), repr(b), repr(se.k), repr(se.h), repr(se.s),
                            m.values.tobytes(), records, repr(s3), gt.values.tobytes()))
        assert outputs[0] == outputs[1] == outputs[2]
