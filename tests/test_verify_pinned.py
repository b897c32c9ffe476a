"""Pinned verify records: circle:64 sin(x) through every check, and a degenerate case.

The values below were written from the suite before its record-building code
was consolidated; any change to a record's params, note, pass flag or numbers
(lhs and rhs to 1e-12 relative) fails here. Report names, applicability, notes
and constant keys are pinned too.
"""

import numpy as np
import pytest

from nsl import KernelSpec, ScalarField, SpaceSpec, build_space
from nsl.verify import check_hajlasz_bound, run_suite

# (report name, applicable, note, sorted constant keys,
#  [(params, note, ok, lhs, rhs), ...])
CIRCLE64_SIN = [
    ('annuli-tail-bound', True, '', ['C', 'c_d_hat', 'c_rho_hat'], [
        ({'r': 0.39269908169872414, 'p': 2.0}, 'sup_x r^p * tail(x) at x = 13',
         True, 0.5783940349792668, 12.0),
        ({'r': 0.7853981633974483, 'p': 2.0}, 'sup_x r^p * tail(x) at x = 0',
         True, 0.511578772205413, 12.0),
    ]),
    ('ball-mean-comparison', True, '', ['factor'], [
        ({'t': 0.39269908169872414, 'p': 2.0},
         'min slack lower 0.0006043088117150319, upper 0.0012086176234300625',
         True, -0.0006043088117150319, 0.0),
        ({'t': 0.7853981633974483, 'p': 2.0},
         'min slack lower 0.026736117894498052, upper 0.053472235788996',
         True, -0.02673611789449804, 0.0),
    ]),
    ('fubini-layer-cake', True, '', ['p', 's'], [
        ({'p': 2.0, 's': 0.7, 'kernel': 'rho1'}, 'segment integral vs direct pair sum',
         True, 7.137785629221315, 7.137785629221314),
    ]),
    ('scale-energy-chain', True, '', ['c_d_hat', 'c_rho_hat'], [
        ({'t': 0.39269908169872414, 'item': 'i-lower'}, '',
         True, 0.1999590558301111, 0.25204677868777525),
        ({'t': 0.39269908169872414, 'item': 'i-upper', 'k_max': 2}, '',
         True, 0.25204677868777525, 0.8415695549073112),
        ({'t': 0.39269908169872414, 'item': 'ii-lower'}, '',
         True, 0.06039395939012175, 31.877916140780265),
        ({'t': 0.39269908169872414, 'item': 'ii-upper'}, '',
         True, 0.39355452025654647, 18.954488342018152),
        ({'t': 0.7853981633974483, 'item': 'i-lower'}, '',
         True, 0.702018086741413, 0.9565169599501715),
        ({'t': 0.7853981633974483, 'item': 'i-upper', 'k_max': 3}, '',
         True, 0.9565169599501715, 2.94762381513155),
        ({'t': 0.7853981633974483, 'item': 'ii-lower'}, '',
         True, 0.1999590558301111, 107.37359508402133),
        ({'t': 0.7853981633974483, 'item': 'ii-upper'}, '',
         True, 1.3255999393089053, 65.00286002850304),
        ({'t': 1.0, 'item': 'iv'}, '', True, 1.4642709785238939, 26.597012207242237),
    ]),
    ('mollifier-bounds', True, '', ['c_d_hat', 'eps_conv'], [
        ({'field': 0, 't': 0.7853981633974483, 'item': 'bounded'}, '',
         True, 1.5744182049047002, 5.317361552716548),
        ({'field': 0, 't': 0.39269908169872414, 'item': 'bounded'}, '',
         True, 1.7160464426878195, 5.317361552716548),
        ({'field': 0, 't': 0.19634954084936207, 'item': 'bounded'}, '',
         True, 1.7554170295069595, 5.317361552716548),
        ({'field': 0, 't': 0.19634954084936207, 'item': 'converges'}, '',
         True, 0.017036821398556452, 0.05),
        ({'field': 0, 'item': 'nonincreasing', 'allowance': 1.05},
         'approximation error along the decreasing grid',
         True, 0.0, 0.0),
    ]),
    ('upper-gradient-scale', True, '', ['c_d_hat', 'factor', 'paths', 't', 'worst_ratio'], [
        ({'kind': 'short', 'from': 54, 'to': 59, 'length': 0.4908738521234052}, '',
         True, 0.3198420596130262, 63.74853566756947),
        ({'kind': 'short', 'from': 32, 'to': 26, 'length': 0.5890486225480862}, '',
         True, 0.4934965660868062, 94.3437151425147),
        ({'kind': 'short', 'from': 19, 'to': 11, 'length': 0.7853981633974483}, '',
         True, 0.06663721689647584, 64.4299012947832),
        ({'kind': 'short', 'from': 4, 'to': 0, 'length': 0.39269908169872414}, '',
         True, 0.339926346924748, 64.84150853409841),
        ({'kind': 'short', 'from': 11, 'to': 18, 'length': 0.6872233929727672}, '',
         True, 0.0878179742774492, 56.345184153462064),
        ({'kind': 'short', 'from': 41, 'to': 49, 'length': 0.7853981633974483}, '',
         True, 0.19735081981467772, 69.8652004071352),
        ({'kind': 'short', 'from': 32, 'to': 37, 'length': 0.4908738521234052}, '',
         True, 0.4187277450481184, 79.93777328983596),
        ({'kind': 'short', 'from': 62, 'to': 56, 'length': 0.5890486225480862}, '',
         True, 0.45480904008694806, 87.72007058045978),
        ({'kind': 'short', 'from': 40, 'to': 44, 'length': 0.39269908169872414}, '',
         True, 0.19255280798345709, 42.46289198758875),
        ({'kind': 'short', 'from': 35, 'to': 43, 'length': 0.7853981633974483}, '',
         True, 0.5255332390924767, 104.68690628844914),
        ({'kind': 'short', 'from': 17, 'to': 24, 'length': 0.6872233929727672}, '',
         True, 0.2558910978542185, 66.87844201208645),
        ({'kind': 'short', 'from': 42, 'to': 34, 'length': 0.7853981633974483}, '',
         True, 0.5652768557778813, 110.65033287623669),
        ({'kind': 'short', 'from': 25, 'to': 32, 'length': 0.6872233929727672}, '',
         True, 0.5635127454214135, 107.97097570823757),
        ({'kind': 'short', 'from': 35, 'to': 27, 'length': 0.7853981633974483}, '',
         True, 0.6765790173059673, 129.1026750052228),
        ({'kind': 'short', 'from': 48, 'to': 54, 'length': 0.5890486225480862}, '',
         True, 0.14970054669404398, 51.39508104279823),
        ({'kind': 'short', 'from': 54, 'to': 47, 'length': 0.6872233929727672}, '',
         True, 0.14542328216328504, 58.841982369286896),
        ({'kind': 'short', 'from': 5, 'to': 62, 'length': 0.6872233929727672}, '',
         True, 0.5920206939313817, 112.9737493710047),
        ({'kind': 'short', 'from': 1, 'to': 57, 'length': 0.7853981633974483}, '',
         True, 0.6505784651007831, 124.56789925446839),
        ({'kind': 'short', 'from': 5, 'to': 9, 'length': 0.39269908169872414}, '',
         True, 0.2679145219616337, 52.72531762972119),
        ({'kind': 'short', 'from': 30, 'to': 26, 'length': 0.39269908169872414}, '',
         True, 0.320203617203543, 61.30773906134594),
        ({'kind': 'short', 'from': 25, 'to': 17, 'length': 0.7853981633974483}, '',
         True, 0.3204803414030163, 79.6635129654774),
        ({'kind': 'short', 'from': 0, 'to': 5, 'length': 0.4908738521234052}, '',
         True, 0.4187277450481185, 79.93777328983596),
        ({'kind': 'short', 'from': 0, 'to': 57, 'length': 0.6872233929727672}, '',
         True, 0.5635127454214135, 107.97097570823757),
        ({'kind': 'short', 'from': 33, 'to': 38, 'length': 0.4908738521234052}, '',
         True, 0.40643084640743654, 77.7467915962839),
        ({'kind': 'short', 'from': 16, 'to': 21, 'length': 0.4908738521234052}, '',
         True, 0.10488584000486312, 41.22958199636764),
        ({'kind': 'short', 'from': 48, 'to': 43, 'length': 0.4908738521234052}, '',
         True, 0.10488584000486323, 41.22958199636764),
        ({'kind': 'short', 'from': 29, 'to': 37, 'length': 0.7853981633974483}, '',
         True, 0.6765790173059673, 129.10267500522284),
        ({'kind': 'short', 'from': 51, 'to': 59, 'length': 0.7853981633974483}, '',
         True, 0.431293983198683, 91.94329741195214),
        ({'kind': 'short', 'from': 24, 'to': 29, 'length': 0.4908738521234052}, '',
         True, 0.3702507167123624, 71.59114494624164),
        ({'kind': 'short', 'from': 60, 'to': 53, 'length': 0.6872233929727672}, '',
         True, 0.4434581644255776, 89.01029946973762),
        ({'kind': 'short', 'from': 53, 'to': 58, 'length': 0.4908738521234052}, '',
         True, 0.28988794526351935, 59.50809286132131),
        ({'kind': 'short', 'from': 45, 'to': 40, 'length': 0.4908738521234052}, '',
         True, 0.22191973927659048, 51.125024040159566),
        ({'kind': 'short', 'from': 56, 'to': 48, 'length': 0.7853981633974483}, '',
         True, 0.2601683623849773, 74.32534333857512),
        ({'kind': 'short', 'from': 37, 'to': 43, 'length': 0.5890486225480862}, '',
         True, 0.3646567663022072, 73.91403471400007),
        ({'kind': 'short', 'from': 54, 'to': 58, 'length': 0.39269908169872414}, '',
         True, 0.24507323857433838, 49.34259381489072),
        ({'kind': 'short', 'from': 24, 'to': 19, 'length': 0.4908738521234052}, '',
         True, 0.22191973927659014, 51.125024040159566),
        ({'kind': 'short', 'from': 27, 'to': 23, 'length': 0.39269908169872414}, '',
         True, 0.26791452196163384, 52.72531762972116),
        ({'kind': 'short', 'from': 46, 'to': 53, 'length': 0.6872233929727672}, '',
         True, 0.08781797427744908, 56.345184153462064),
        ({'kind': 'short', 'from': 4, 'to': 63, 'length': 0.4908738521234052}, '',
         True, 0.42699206660411765, 81.43843208032922),
        ({'kind': 'short', 'from': 34, 'to': 29, 'length': 0.4908738521234052}, '',
         True, 0.43114422114111206, 82.20087779655564),
        ({'kind': 'short', 'from': 43, 'to': 47, 'length': 0.39269908169872414}, '',
         True, 0.10060857547410429, 33.78268066987898),
        ({'kind': 'short', 'from': 16, 'to': 11, 'length': 0.4908738521234052}, '',
         True, 0.10488584000486312, 41.22958199636764),
        ({'kind': 'short', 'from': 46, 'to': 50, 'length': 0.39269908169872414}, '',
         True, 0.0, 30.231204314188847),
        ({'kind': 'short', 'from': 32, 'to': 27, 'length': 0.4908738521234052}, '',
         True, 0.41872774504811844, 79.93777328983595),
        ({'kind': 'short', 'from': 48, 'to': 43, 'length': 0.4908738521234052}, '',
         True, 0.10488584000486323, 41.22958199636764),
        ({'kind': 'short', 'from': 21, 'to': 28, 'length': 0.6872233929727672}, '',
         True, 0.44345816442557767, 89.01029946973759),
        ({'kind': 'short', 'from': 16, 'to': 10, 'length': 0.5890486225480862}, '',
         True, 0.14970054669404442, 51.39508104279823),
        ({'kind': 'short', 'from': 45, 'to': 50, 'length': 0.4908738521234052}, '',
         True, 0.02118075738097336, 38.31592145550998),
        ({'kind': 'short', 'from': 3, 'to': 7, 'length': 0.39269908169872414}, '',
         True, 0.3056614731635647, 58.806073992850706),
        ({'kind': 'short', 'from': 24, 'to': 31, 'length': 0.6872233929727672}, '',
         True, 0.5410362692908417, 104.15912311539772),
        ({'kind': 'long', 'from': 30, 'to': 39, 'length': 0.8835729338221293}, '',
         True, 0.7368056943046767, 141.00695178940634),
        ({'kind': 'long', 'from': 48, 'to': 61, 'length': 1.2762720155208536}, '',
         True, 0.6304190790973397, 145.91648828481675),
        ({'kind': 'long', 'from': 2, 'to': 16, 'length': 1.3744467859455347}, '',
         True, 0.7149774024719258, 162.04541391903496),
        ({'kind': 'long', 'from': 52, 'to': 61, 'length': 0.8835729338221293}, '',
         True, 0.5628035246958194, 114.05403693383039),
        ({'kind': 'long', 'from': 15, 'to': 29, 'length': 1.3744467859455347}, '',
         True, 0.6261418145665809, 153.36338961130542),
        ({'kind': 'long', 'from': 55, 'to': 20, 'length': 2.8470683423157506}, '',
         True, 1.5072970639634207, 359.6069322707471),
        ({'kind': 'long', 'from': 17, 'to': 55, 'length': 2.552544031041707}, '',
         True, 1.5706353538341822, 335.1913822462495),
        ({'kind': 'long', 'from': 16, 'to': 34, 'length': 1.7671458676442588}, '',
         True, 1.061563300238452, 228.1173660813724),
        ({'kind': 'long', 'from': 41, 'to': 27, 'length': 1.3744467859455347}, '',
         True, 1.1053700120578707, 212.60086420939308),
        ({'kind': 'long', 'from': 5, 'to': 14, 'length': 0.8835729338221293}, '',
         True, 0.45247474057965653, 100.02801455327331),
        ({'kind': 'long', 'from': 55, 'to': 37, 'length': 1.7671458676442588}, '',
         True, 0.2679145219616341, 177.56191579101426),
        ({'kind': 'long', 'from': 53, 'to': 26, 'length': 2.6507188014663883}, '',
         True, 1.276881077437132, 330.6546871390859),
    ]),
    ('threshold-averaging', True, '', ['eps', 'p', 'r'], [
        ({'eps': 0.5, 'r': 1.0, 'p': 2.0, 'kernel': 'rho1'},
         'segment integral vs truncated pair sum',
         True, 1.0571280946354495, 1.0571280946354495),
    ]),
    ('hajlasz-vs-cheeger', True, '', ['budget', 'r'], [
        ({'space': 'circle(64)'}, '', True, 0.38791007952214734, 100.0),
        ({'space': 'circle(128)', 'item': 'stability'},
         'ratio 0.38791007952214734 -> 0.38711907885441965',
         True, 0.002039134091854744, 0.25),
    ]),
    ('two-sided-limits', False, 'informational only', ['R_bbm', 'R_nguyen', 'window'], [
        ({'ratio': 'R_bbm'}, 'window [0.05, 20.0]', False, 0.036482793787295936, 20.0),
        ({'ratio': 'R_nguyen'}, 'window [0.05, 20.0]', True, 0.2630884138294338, 20.0),
        ({'ratio': 'R_bbm', 'item': 'stability'}, '0.036482793787296366 -> 0.0572541505285877',
         False, 0.5693466586576583, 0.15),
        ({'ratio': 'R_nguyen', 'item': 'stability'}, '0.26308841382943426 -> 0.13616584553328379',
         False, 0.48243313511493735, 0.15),
    ]),
]
TORUS4X4_DEGENERATE = [
    ('hajlasz-vs-cheeger', True, '', ['budget', 'r'], [
        ({'space': 'torus2d(4x4)'}, 'degenerate: zero local-slope energy with nonzero objective',
         False, 16.0, 0.0),
    ]),
]


def _circle64_sin_reports():
    sp = build_space(SpaceSpec.parse("circle:64"))
    return run_suite(
        sp,
        ScalarField(np.sin(sp.coords[:, 0])),
        2.0,
        KernelSpec("rho1"),
        informational=("two-sided",),
        refine_field=lambda s: ScalarField(np.sin(s.coords[:, 0])),
    )


def _torus4x4_degenerate_reports():
    # alternating field on a periodic grid: centered differences vanish
    sp = build_space(SpaceSpec.parse("torus2d:4x4"))
    i, j = np.arange(16) // 4, np.arange(16) % 4
    return [check_hajlasz_bound(sp, ScalarField((-1.0) ** (i + j)), 2.0)]


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= 1e-12 * max(abs(a), abs(b))


@pytest.mark.parametrize(
    "build, pinned",
    [(_circle64_sin_reports, CIRCLE64_SIN), (_torus4x4_degenerate_reports, TORUS4X4_DEGENERATE)],
    ids=["circle64-sin-all", "torus4x4-hajlasz-degenerate"],
)
def test_records_match_pinned_values(build, pinned):
    reports = build()
    assert [r.name for r in reports] == [p[0] for p in pinned]
    for rep, (name, applicable, note, keys, records) in zip(reports, pinned):
        assert (rep.applicable, rep.note, sorted(rep.constants)) == (applicable, note, keys), name
        assert len(rep.records) == len(records), name
        for k, (rec, (params, rnote, ok, lhs, rhs)) in enumerate(zip(rep.records, records)):
            where = (name, k)
            assert rec.params == params, where
            assert (rec.note, bool(rec.ok)) == (rnote, ok), where
            assert _close(rec.lhs, lhs) and _close(rec.rhs, rhs), (where, rec.lhs, rec.rhs)
