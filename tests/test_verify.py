import hashlib
import json
from operator import mul

import pytest

from kcrystals import crystal, keys, kohnert, skyline, verify
from kcrystals.crystal import atom_subset, demazure_subset, flagged_set
from kcrystals.keys import lusztig_star, max_right_key, right_key
from kcrystals.kohnert import KKohnertDiagram, initial_diagram
from kcrystals.permutations import _pad, act, bruhat_ideal, bruhat_leq, coset_reps, lehmer_code
from kcrystals.polynomials import BetaPolynomial, lascoux, lascoux_atom
from kcrystals.tableaux import SetValuedTableau, _svt_codes, enumerate_svt
from kcrystals.verify import SUITES, Bounds, iter_cases, run_case, run_suite
from oracles import per_tableau

# (case count, SHA-256 of json.dumps(cases, sort_keys=True)) at the default
# bounds; pins the content and the order of every suite's case list.
FROZEN_CASES = {
    "operator-algebra": (72, "3798ea27132d5ac3537f98b75fc818f96cb85663456220929805d1d74a981102"),
    "crystal-axioms": (126, "3843c9f8568634a529d8c572bd5380a1bf20172b2a0839d10bd58bfb7a0920dc"),
    "k-crystal-axioms": (171, "83a464e2a6bf883c619fea6273fc799ea7af6cb5bd712fe5df1ecdf2427796b9"),
    "demazure-flag": (73, "49051b84e5e8e88ad9d83a7110ee7d844f2950484a90b6a6fde115190b924d66"),
    "character": (64, "0e745f4992eaac43bfdbe43a6eb4e924f267bee7fe9ddf31587e91ff959fcbcd"),
    "kohnert-bijection": (145, "5fc8c493e39e30155b7dc4114af9004563a6fb293c3a1430458a065393642996"),
    "skyline-bijection": (145, "9d75c9079c7606b1cb64e24eedcec636215254d0e3a4e5ddb16856e0c3f77924"),
    "keys-rectangle": (96, "d1beafb03c13b82fd067ea5f4e3abbc5923dd8c084309025f63506d8e850abcc"),
    "grothendieck-vexillary": (3, "dfcdfdb48326d979954a4c5e178344bdb7abb056f41b7fe2a9a9d2203f71ce04"),
    "conjecture-scan": (51, "49d35443535e389174158349fd1f59a872c02fccb15daea29e5b34943afcbf28"),
}

# SHA-256 of each suite's `verify --format json` stream at the default bounds,
# recorded before the crystal table replaced the per-tableau caches; pins
# every case's status and witness, byte for byte.
FROZEN_STREAMS = {
    "operator-algebra": "885c246500b6774a612e7e73b8899fd85f19f9b082551b6f9f307acf0a6108f7",
    "crystal-axioms": "2cc19ecde12ae4fc31376a946daaa112e0dc6bf79765f03b24b5a119a1730fc0",
    "k-crystal-axioms": "4b41f044765dcb3ab3b9cefd3d192cc91fcf59d35684dc620c0b538f66ba9346",
    "demazure-flag": "0772d6ff046d5b78cc43f0c428a39ed5c4021be14a6862075b308de5dbbd55a8",
    "character": "7e270bcbfc86b163630049fe526de08be255a0e762d4d9b16f6e636a65e475b8",
    "kohnert-bijection": "26e8369d0511e0374ff4aaf9dda5029042fd2e78302b2e0fbd377799ddde4a2e",
    "skyline-bijection": "3487aa7d5bb064366120d516225a80ab17a47934259c49c4b6ae58ce4b0f1458",
    "keys-rectangle": "4f2ac8d00f7eb5dd7b81f15d2bb783bff5fece31852174ffce6e5dddcb56c7fd",
    "grothendieck-vexillary": "611ebff55d614c237e58e466ac09f17283a309b3b5f8ebb44d5eb6c8ece0cd23",
    "conjecture-scan": "e224591799699a7101d435a47194fd231d5b658cd6b549a160fd1d8b4797d2f6",
}


def test_every_suite_has_a_frozen_case_list():
    assert list(FROZEN_CASES) == list(SUITES) == list(FROZEN_STREAMS)


@pytest.mark.parametrize("suite", FROZEN_CASES)
def test_case_lists_are_frozen(suite):
    cases = iter_cases(suite, Bounds())
    digest = hashlib.sha256(json.dumps(cases, sort_keys=True).encode()).hexdigest()
    assert (len(cases), digest) == FROZEN_CASES[suite]


@pytest.mark.parametrize("suite", FROZEN_STREAMS)
def test_json_streams_are_frozen(suite):
    stream = "".join(result.to_json() + "\n" for result in run_suite(suite, Bounds(), jobs=1))
    assert hashlib.sha256(stream.encode()).hexdigest() == FROZEN_STREAMS[suite]


def test_conjecture_scan_on_a_rectangle_is_frozen():
    """The stream of `verify conjecture-scan --shape 2,2 --n 4`, the only run
    that reaches the K-rect key map, as recorded before the key maps were
    read from the crystal table."""
    stream = "".join(r.to_json() + "\n" for r in run_suite("conjecture-scan", Bounds(shape=(2, 2), n=4), jobs=1))
    assert hashlib.sha256(stream.encode()).hexdigest() == (
        "5884af2c5cc30d97bddb4e26521c67d1be17942deba8b0fbaad6cf912896e6d1"
    )


def test_run_case_rejects_a_check_of_another_suite():
    case = {"check": "k-ops", "n": 2, "shape": [1]}
    assert run_case("k-crystal-axioms", case).status == "pass"
    with pytest.raises(ValueError, match="no check 'k-ops'"):
        run_case("character", case)
    with pytest.raises(ValueError, match="unknown suite"):
        run_case("not-a-suite", case)


# -- fault injection ---------------------------------------------------------
# Tables are rebuilt from a wrong kernel, and each check must return the
# witness that the per-tableau form of the check (before the table held
# statistics, max-right keys and rotations) returned for the same fault.
# Everything derived from a crystal is held by its table, so clearing the
# tables is the one reset.


@pytest.fixture
def table_fault(monkeypatch):
    """The monkeypatch for a test's fault; the tables are cleared before
    and after."""
    crystal.crystal_table.cache_clear()
    yield monkeypatch
    monkeypatch.undo()
    crystal.crystal_table.cache_clear()


@pytest.fixture
def kernel(table_fault):
    """Sets kernel operators, tableau-level, for the tables built inside a test."""
    return lambda op, fn: table_fault.setitem(crystal._KERNEL, op, per_tableau(fn))


def _letters_swapped(op):
    """op at letter 3 - i: a wrong-weight operator at n = 3."""
    return lambda t, i: op(t, 3 - i)


def _twice(op):
    """op applied twice: a wrong-weight operator at every n."""

    def twice(t, i):
        once = op(t, i)
        return None if once is None else op(once, i)

    return twice


def _conjugated(op, a, b):
    """op conjugated by the swap of tableaux a and b, which have one weight
    and excess but are not each other's rotation."""

    def swap(t):
        return b if t == a else a if t == b else t

    def conjugated(t, i):
        image = op(swap(t), i)
        return None if image is None else swap(image)

    return conjugated


def test_inverse_ops_witness_under_a_wrong_weight_f(kernel):
    kernel("e", _letters_swapped(crystal.crystal_e))
    kernel("f", _letters_swapped(crystal.crystal_f))
    case = {"check": "inverse-ops", "n": 3, "shape": [2, 1]}
    assert run_case("crystal-axioms", case).witness == "f_1 weight law fails at 1 1,2,3/2"


def test_inverse_ops_witness_under_a_one_sided_fault(kernel):
    kernel("f", _twice(crystal.crystal_f))
    case = {"check": "inverse-ops", "n": 3, "shape": [2, 2]}
    assert run_case("crystal-axioms", case).witness == "f_2 e_2 != id at 1 1,2/3 3"


def test_k_ops_witness_under_a_wrong_weight_f(kernel):
    kernel("eK", _letters_swapped(crystal.kcrystal_e))
    kernel("fK", _letters_swapped(crystal.kcrystal_f))
    case = {"check": "k-ops", "n": 3, "shape": [2, 2]}
    assert run_case("k-crystal-axioms", case).witness == "f^K_1 weight law fails at 1 1,2/2 3"


@pytest.mark.parametrize(
    "n,shape,witness",
    [
        (3, [2, 2], "path-mirror weight law fails at 1 1,2/2 3"),
        (3, [2], "path-mirror involution does not square to id at 1 1"),
    ],
)
def test_star_axioms_witness_under_a_wrong_weight_f(kernel, n, shape, witness):
    kernel("f", _twice(crystal.crystal_f))
    case = {"check": "star-axioms", "n": n, "shape": shape}
    assert run_case("keys-rectangle", case).witness == witness


def test_star_axioms_witness_when_the_crystal_is_not_rotation_symmetric(kernel):
    a, b = SetValuedTableau.from_text("1 2/3 3,4", 4), SetValuedTableau.from_text("1 2,3/3 4", 4)
    kernel("e", _conjugated(crystal.crystal_e, a, b))
    kernel("f", _conjugated(crystal.crystal_f, a, b))
    case = {"check": "star-axioms", "n": 4, "shape": [2, 2]}
    assert run_case("keys-rectangle", case).witness == "e_3(T°) != (f_1T)° at 1 1,2/3 4"


# -- fault injection in the subset checks --------------------------------------
# Each fault runs every case of six checks at --max-n 4 --max-side 2 from
# empty tables.  The failure counts, first witnesses and the SHA-256 of every
# failing (case, witness) pair were read off the checks when each Demazure
# and flagged subset was its own cache of tableaux.

SUBSET_CHECKS = {
    "k-strings": "k-crystal-axioms",
    "k-monotone": "k-crystal-axioms",
    "k-demazure": "k-crystal-axioms",
    "flag": "demazure-flag",
    "key-ideal-atom": "keys-rectangle",
    "skyline": "skyline-bijection",
}


def _subset_failures():
    """The (case, witness) of each failing case of each subset check, in
    suite order."""
    failures = {}
    for check, suite in SUBSET_CHECKS.items():
        cases = iter_cases(suite, Bounds(max_n=4, max_side=2))
        results = [run_case(suite, case) for case in cases if case["check"] == check]
        failures[check] = [(r.case, r.witness) for r in results if r.status == "fail"]
    return failures


def _e_at_letter_1_only(t, i):
    return crystal.crystal_e(t, i) if i == 1 else None


def _ek_never_at_letter_2(t, i):
    return None if i == 2 else crystal.kcrystal_e(t, i)


def _bruhat_reversed(v, w):
    return bruhat_leq(w, v)


SUBSET_FAULTS = {
    "eK never acts": (
        lambda mp: mp.setitem(crystal._KERNEL, "eK", per_tableau(lambda t, i: None)),
        {
            "k-strings": (22, 'exception: AssertionError("i-K-strings overlap at [\'1,2\']")'),
            "k-demazure": (36, "minimal highest weight element is not unique: ['1', '1,2']"),
            "flag": (26, "flag mismatch: ['1,2']"),
            "key-ideal-atom": (26, "key ideal differs from the K-Demazure subset"),
            "skyline": (26, "psi image mismatch: ['1,2']"),
        },
        "0722f3b89c183f6a2010c6ca5535fa19b2350c1945b28db2260ad4871640726f",
    ),
    "e acts at letter 1 only": (
        lambda mp: mp.setitem(crystal._KERNEL, "e", per_tableau(_e_at_letter_1_only)),
        {
            "k-strings": (16, "string at 1,3 meets the subset of w=[3, 1, 2] in ['1,2,3', '2,3']"),
            "k-monotone": (2, "monotonicity fails for v=[1, 4, 2, 3] <= w=[3, 4, 1, 2]"),
            "k-demazure": (32, "minimal highest weight element is not unique: ['1', '1,3', '3']"),
            "flag": (20, "flag mismatch: ['1,3', '3']"),
            "key-ideal-atom": (32, "exception: IndexError('list index out of range')"),
            "skyline": (20, "psi image mismatch: ['1,3', '3']"),
        },
        "d6626ee5de486033b1f0cbe0dc10f1550bb16af8b14ba0e31b549da631f0c0eb",
    ),
    "eK never acts at letter 2": (
        lambda mp: mp.setitem(crystal._KERNEL, "eK", per_tableau(_ek_never_at_letter_2)),
        {
            "k-strings": (12, 'exception: AssertionError("i-K-strings overlap at [\'1,2,3\']")'),
            "k-monotone": (2, "monotonicity fails for v=[1, 4, 2, 3] <= w=[3, 4, 1, 2]"),
            "k-demazure": (24, "character mismatch: x3 + x2 + x1 + b*x1*x3 + b*x1*x2"),
            "flag": (20, "flag mismatch: ['1,2,3', '2,3']"),
            "key-ideal-atom": (20, "key ideal differs from the K-Demazure subset"),
            "skyline": (17, "psi image mismatch: ['1,2,3', '2,3']"),
        },
        "92e64e5ffe8db5a8ab9e54d238b81382f642e3a8b3bfe8464efaff8feb652fee",
    ),
    "fK applied twice": (
        lambda mp: mp.setitem(crystal._KERNEL, "fK", per_tableau(_twice(crystal.kcrystal_f))),
        {
            "k-strings": (
                22,
                'exception: AssertionError("tableaux not covered by i-K-strings: [\'1,2\']")',
            ),
        },
        "19e9c12103c563ec2adf86ede62790ffa7cdb0ecbebe7ead3708bdc4be10ead3",
    ),
    "Bruhat order reversed": (
        lambda mp: mp.setattr(verify, "bruhat_leq", _bruhat_reversed),
        {"k-monotone": (10, "monotonicity fails for v=[2, 1] <= w=[1, 2]")},
        "c63bff57a682bfbdc480b0775c3b438efb3d57569d073bf11830129d0b9d16fd",
    ),
}


def test_every_subset_check_fails_under_some_fault():
    assert set(SUBSET_CHECKS) == {check for _, first, _ in SUBSET_FAULTS.values() for check in first}


@pytest.mark.parametrize("fault", SUBSET_FAULTS)
def test_subset_check_witnesses_under_a_fault(table_fault, fault):
    inject, expected, digest = SUBSET_FAULTS[fault]
    inject(table_fault)
    failures = _subset_failures()
    first = {check: (len(fails), fails[0][1]) for check, fails in failures.items() if fails}
    assert first == expected
    dump = json.dumps(list(failures.values()), sort_keys=True)
    assert hashlib.sha256(dump.encode()).hexdigest() == digest


def test_components_witness_under_a_kernel_fault(table_fault):
    """Every components case at the default bounds from empty tables, with
    e acting at letter 1 only; the count, first witness and SHA-256 of every
    failing (case, witness) pair were read off the check while the table
    filled its maps tableau by tableau."""
    table_fault.setitem(crystal._KERNEL, "e", per_tableau(_e_at_letter_1_only))
    cases = [case for case in iter_cases("crystal-axioms", Bounds()) if case["check"] == "components"]
    results = [run_case("crystal-axioms", case) for case in cases]
    failures = [(r.case, r.witness) for r in results if r.status == "fail"]
    assert (len(cases), len(failures)) == (63, 45)
    assert failures[0] == (
        {"check": "components", "n": 3, "shape": [1]},
        'exception: AssertionError("component without unique highest weight: '
        "[SetValuedTableau('1', n=3), SetValuedTableau('3', n=3)]\")",
    )
    dump = json.dumps(failures, sort_keys=True)
    assert hashlib.sha256(dump.encode()).hexdigest() == (
        "f2c1daffc7f68a2842635bbf7e167f233e7856871158fde8dd02c1f185a3d620"
    )


# -- faults that leave the crystal ------------------------------------------------
# The table holds exactly the semistandard tableaux, so an operator image that
# is not in it is not semistandard, and CrystalTable._fill fails the case with
# an AssertionError that names the operator, the source and the image.  The
# kernel faults below act on codes, as the real kernels do.  Each fault
# runs every case of one suite at --max-n 3 from empty tables; the counts,
# first witnesses and SHA-256 of every failing (case, witness) pair were read
# off the checks when table membership became the one semistandardness test.
# Each entry names its suite and the check of its first failure.


def _f_at_leftmost_plus(table, i, key):
    """f_i trading i for i+1 in the box of the leftmost unpaired "+", never
    taking the i of the box to its right."""
    plus, _ = table._pair(key)
    if not plus:
        return None
    column = table._column[plus[0]]
    return lambda code: code + ((code >> i & column) << i)


def _fk_at_leftmost_plus(table, i, key):
    """f^K_i adding i+1 to the box of the leftmost unpaired "+" of an
    i-highest code, whatever the boxes right of it hold."""
    plus, minus = table._pair(key)
    if minus or not plus:
        return None
    column = table._column[plus[0]]
    return lambda code: code | (code >> i & column) << (i + 1)


def _codes_with_2_1_for_1_2(codes):
    """_svt_codes with the code of the filling 2 1, not semistandard, in
    place of the code of 1 2 on the shape (2,)."""
    out = _svt_codes(codes)
    if codes.shape != (2,):
        return out
    one_two, two_one = (codes._encode(SetValuedTableau.from_text(text, codes.n)) for text in ("1 2", "2 1"))
    return [two_one if code == one_two else code for code in out]


MEMBERSHIP_FAULTS = {
    "f trades i for i+1 at the leftmost unpaired +": (
        lambda mp: mp.setitem(crystal._KERNEL, "f", _f_at_leftmost_plus),
        ("crystal-axioms", "inverse-ops"),
        (50, "exception: AssertionError('f_1 sends 1 1 out of the crystal, to 2 1')"),
        "a3b91c2ba9ef4e8405dd579e3cf4b85c58d96e2efbf4c63fa5ecb285fabf18cc",
    ),
    "fK adds i+1 at the leftmost unpaired +": (
        lambda mp: mp.setitem(crystal._KERNEL, "fK", _fk_at_leftmost_plus),
        ("k-crystal-axioms", "k-ops"),
        (16, "exception: AssertionError('f^K_1 sends 1 1 out of the crystal, to 1,2 1')"),
        "6daaec3eec5ae89978d3c6147eca18427dc387765cbd5a93d98765e550e6d7bd",
    ),
    "_svt_codes emits 2 1 for 1 2": (
        lambda mp: mp.setattr(crystal, "_svt_codes", _codes_with_2_1_for_1_2),
        ("crystal-axioms", "inverse-ops"),
        (4, "exception: AssertionError('e_1 sends 2 2 out of the crystal, to 1 2')"),
        "5e4e329d08533043d4202cf5ae9989e5f608b41067664e7971401dd1ef30735f",
    ),
}


@pytest.mark.parametrize("fault", MEMBERSHIP_FAULTS)
def test_an_image_outside_the_crystal_is_a_named_witness(table_fault, fault):
    inject, (suite, check), expected, digest = MEMBERSHIP_FAULTS[fault]
    inject(table_fault)
    results = [run_case(suite, case) for case in iter_cases(suite, Bounds(max_n=3))]
    failures = [(r.case, r.witness) for r in results if r.status == "fail"]
    assert (len(failures), failures[0][0]["check"], failures[0][1]) == (expected[0], check, expected[1])
    dump = json.dumps(failures, sort_keys=True)
    assert hashlib.sha256(dump.encode()).hexdigest() == digest


# -- faults that reach the components and rotation witnesses ------------------
# Each fault runs every case of one check at --max-n 3 from empty tables and
# must reach the witness it is named for; the failure count, first witness
# and SHA-256 of every failing (case, witness) pair were read off the checks
# when each shape entry point first keyed its shape by the partition.


def _excess_of_the_first_row(table):
    """CrystalTable.stats with each excess counted in the first row only."""
    units = table._units
    return tuple(
        sum(map(mul, t.weight(), units)) + sum(len(cell) - 1 for cell in t.rows[0]) * units[-1]
        for t in map(table.decode, table.codes)
    )


def _rotations_with_a_swap(table):
    """keys._rotations with the images of j < k swapped, the first two
    positions of one weight where j's image is neither j nor k."""
    rotations, first = keys._rotations(table), {}
    for k, stat in enumerate(table.stats):
        j = first.setdefault(stat % table._units[-1], k)  # the weight: the stat less its excess
        if j != k and rotations[j] not in (j, k):
            rotations[j], rotations[k] = rotations[k], rotations[j]
            break
    return rotations


WITNESS_FAULTS = {
    "e never acts": (
        lambda mp: mp.setitem(crystal._KERNEL, "e", per_tableau(lambda t, i: None)),
        ("crystal-axioms", "components"),
        "component without unique highest weight",
        (
            32,
            'exception: AssertionError("component without unique highest weight: '
            "[SetValuedTableau('1', n=2), SetValuedTableau('2', n=2)]\")",
        ),
        "3c5315dd4c88f78f54e7a938f8f9f182ea6267b5196492df121021edc3ee4a99",
    ),
    "stats count the excess of the first row only": (
        lambda mp: mp.setattr(crystal.CrystalTable, "stats", property(_excess_of_the_first_row)),
        ("crystal-axioms", "components"),
        "not the single-valued one",
        (11, "component of the minimal highest weight element is not the single-valued one"),
        "e8ff837267bbc5923f97b5bd4ba6519b493952136a336add2d02ec57dfc06f02",
    ),
    "rotations swap two positions of one weight": (
        lambda mp: mp.setattr(verify, "_rotations", _rotations_with_a_swap),
        ("keys-rectangle", "star-axioms"),
        "rotation involution does not square to id",
        (3, "e_2(T°) != (f_1T)° at 1 1 1,3"),
        "0786798232cdc156f3b17bf27cd08da710522e7b53da6fc84baa999779adfa91",
    ),
}


@pytest.mark.parametrize("fault", WITNESS_FAULTS)
def test_a_fault_reaches_the_witness_it_is_named_for(table_fault, fault):
    inject, (suite, check), reached, expected, digest = WITNESS_FAULTS[fault]
    inject(table_fault)
    cases = [case for case in iter_cases(suite, Bounds(max_n=3)) if case["check"] == check]
    failures = [(r.case, r.witness) for r in (run_case(suite, case) for case in cases) if r.status == "fail"]
    assert (len(failures), failures[0][1]) == expected
    assert any(reached in witness for _, witness in failures)
    dump = json.dumps(failures, sort_keys=True)
    assert hashlib.sha256(dump.encode()).hexdigest() == digest


def test_clearing_the_tables_rebuilds_every_derived_structure(table_fault):
    """Each reader, read once, reads the faults set afterwards when only
    crystal_table's cache is cleared: nothing derived from a crystal
    outlives its table.  The kernel fault relabels two pairs of tableaux
    of one weight and excess, one single-valued; the flag and the
    rotation, which no kernel operator reaches, get faults of their own."""
    n, shape = 4, (2, 2)
    reps = coset_reps(_pad(shape, n), n)
    tableaux = enumerate_svt(n, shape)
    readers = {
        "demazure_subset": lambda: [demazure_subset(w, shape, n) for w in reps],
        "flagged_set": lambda: [flagged_set(w, shape, n) for w in reps],
        "atom_subset": lambda: [atom_subset(w, shape, n) for w in reps],
        "right_key": lambda: [right_key(t) for t in tableaux if t.excess() == 0],
        "max_right_key": lambda: [max_right_key(t) for t in tableaux],
        "lusztig_star": lambda: [lusztig_star(t) for t in tableaux],
        "rotations": lambda: list(crystal.crystal_table(n, shape).derived(keys._rotations)),
    }
    before = {name: read() for name, read in readers.items()}
    for op, conjugated in (("e", crystal.crystal_e), ("f", crystal.crystal_f)):
        for a, b in (("1 2/3 4", "1 3/2 4"), ("1 2/3 3,4", "1 2,3/3 4")):
            a, b = SetValuedTableau.from_text(a, n), SetValuedTableau.from_text(b, n)
            conjugated = _conjugated(conjugated, a, b)
        table_fault.setitem(crystal._KERNEL, op, per_tableau(conjugated))
    table_fault.setattr(crystal, "flag_vector", lambda w, r, s: (n,) * r)
    table_fault.setattr(keys, "_rotate", lambda codes, code: code)
    crystal.crystal_table.cache_clear()
    assert [name for name, read in readers.items() if read() == before[name]] == []


def test_kohnert_bijection_is_the_same_on_two_workers():
    assert run_suite("kohnert-bijection", Bounds(), jobs=2) == run_suite(
        "kohnert-bijection", Bounds(), jobs=1
    )


# -- fault injection in the Kohnert checks -------------------------------------
# Each fault runs every kohnert and kohnert-intertwine case of the square
# (2, 2) at n = 3 and at n = 4, in suite order from empty caches and then in
# reverse order from the filled ones.  The expected witnesses are those the
# checks returned when every composition built its own closure table, before
# one graph per rearrangement class held each diagram's verdicts.

KOHNERT_CACHES = (kohnert.kohnert_graph, crystal.crystal_table)


@pytest.fixture
def kohnert_fault(monkeypatch):
    """The monkeypatch for a test's fault; the graph and crystal caches
    are cleared before and after."""
    for cached in KOHNERT_CACHES:
        cached.cache_clear()
    yield monkeypatch
    monkeypatch.undo()
    for cached in KOHNERT_CACHES:
        cached.cache_clear()


def _square_witnesses(n):
    """Witness by (check, w) of each failing kohnert-bijection case of the
    (2, 2) square at n, in suite order and then in reverse order."""
    cases = [
        case
        for case in iter_cases("kohnert-bijection", Bounds(max_n=n, max_side=2))
        if case.get("n") == n and case.get("shape") == [2, 2]
    ]
    runs = []
    for order in (cases, cases[::-1]):
        results = [run_case("kohnert-bijection", case) for case in order]
        runs.append({
            (r.case["check"], tuple(r.case["w"])): r.witness for r in results if r.status == "fail"
        })
    return runs


SQUARE_W = {3: [(1, 2, 3), (1, 3, 2), (2, 3, 1)]}
SQUARE_W[4] = [(1, 2, 3, 4), (1, 3, 2, 4), (1, 4, 2, 3), (2, 3, 1, 4), (2, 4, 1, 3), (3, 4, 1, 2)]
ROW_PAIR = initial_diagram((2, 2, 0))  # columns 1 and 2 full: in every closure of the class
SPLIT_PAIR = initial_diagram((2, 0, 2))


def _each(check, witnesses_by_w):
    return {(check, w): witness for w, witness in witnesses_by_w.items()}


def _moves_with_k_swapped(monkeypatch):
    moves = verify._svt_moves
    monkeypatch.setattr(
        verify, "_svt_moves", lambda codes, code: {(x, not k): u for (x, k), u in moves(codes, code).items()}
    )


def _no_move_from_column_3(monkeypatch):
    moves = verify._svt_moves
    monkeypatch.setattr(
        verify, "_svt_moves", lambda codes, code: {key: u for key, u in moves(codes, code).items() if key[0] != 3}
    )


def _key(diagram, codes):
    """diagram's key in the graph whose phi images are codes' tableaux."""
    return kohnert.pack(diagram, len(codes._column), codes.n)


def _phi_raises_on_the_row_pair(monkeypatch):
    phi_code = kohnert._phi_code

    def raising(codes, key):
        if key == _key(ROW_PAIR, codes):
            raise ValueError("injected fault")
        return phi_code(codes, key)

    monkeypatch.setattr(kohnert, "_phi_code", raising)


def _phi_sends_the_split_pair_to_the_row_pair(monkeypatch):
    phi_code = kohnert._phi_code
    monkeypatch.setattr(
        kohnert,
        "_phi_code",
        lambda codes, key: phi_code(codes, _key(ROW_PAIR, codes) if key == _key(SPLIT_PAIR, codes) else key),
    )


def _phi_inverse_drops_a_single_mark(monkeypatch):
    inverse = verify._phi_inverse_key

    def dropping(codes, code):
        key, size = inverse(codes, code), codes.n * len(codes._column)
        marked = key >> size
        return key & ((1 << size) - 1) & ~marked if marked.bit_count() == 1 else key

    monkeypatch.setattr(verify, "_phi_inverse_key", dropping)


def _phi_inverse_raises_at_one_tableau(monkeypatch):
    inverse = verify._phi_inverse_key

    def raising(codes, code):
        if codes.decode(code).to_text() == "1 2/2 3":
            raise RuntimeError("injected fault")
        return inverse(codes, code)

    monkeypatch.setattr(verify, "_phi_inverse_key", raising)


def _flagged_set_drops_its_last(monkeypatch):
    flagged = crystal.CrystalTable.flagged

    def dropping(table, w):
        bits = flagged(table, w)
        return bits & ~(1 << (bits.bit_length() - 1))

    monkeypatch.setattr(crystal.CrystalTable, "flagged", dropping)


PHI_RAISES = "exception: ValueError('injected fault')"
KOHNERT_FAULTS = {
    "moves with k swapped": (
        _moves_with_k_swapped,
        _each(
            "kohnert-intertwine",
            {
                (1, 3, 2): "moves do not intertwine at 1 1/2 3, x=3, k=False",
                (2, 3, 1): "moves do not intertwine at 1 1,2/3 3, x=3, k=False",
            },
        ),
        _each(
            "kohnert-intertwine",
            {
                (1, 3, 2, 4): "moves do not intertwine at 1 1/2 3, x=3, k=False",
                (1, 4, 2, 3): "moves do not intertwine at 1 1/2 3, x=3, k=False",
                (2, 3, 1, 4): "moves do not intertwine at 1 1,2/3 3, x=3, k=False",
                (2, 4, 1, 3): "moves do not intertwine at 1 1,2/2,3 4, x=4, k=False",
                (3, 4, 1, 2): "moves do not intertwine at 1 1,2/2,3 4, x=4, k=False",
            },
        ),
    ),
    "no move from column 3": (
        _no_move_from_column_3,
        _each(
            "kohnert-intertwine",
            {
                (1, 3, 2): "move availability differs at 1 1/2 3, x=3, k=False",
                (2, 3, 1): "move availability differs at 1 1,2/3 3, x=3, k=False",
            },
        ),
        _each(
            "kohnert-intertwine",
            {
                (1, 3, 2, 4): "move availability differs at 1 1/2 3, x=3, k=False",
                (1, 4, 2, 3): "move availability differs at 1 1/2 3, x=3, k=False",
                (2, 3, 1, 4): "move availability differs at 1 1,2/3 3, x=3, k=False",
                (2, 4, 1, 3): "move availability differs at 1 1,2/3 3, x=3, k=False",
                (3, 4, 1, 2): "move availability differs at 1 1,2/3 3, x=3, k=False",
            },
        ),
    ),
    # every case of the class, not only the first, reports the exception
    "phi raises on one diagram": (
        _phi_raises_on_the_row_pair,
        {(check, w): PHI_RAISES for w in SQUARE_W[3] for check in ("kohnert", "kohnert-intertwine")},
        {(check, w): PHI_RAISES for w in SQUARE_W[4] for check in ("kohnert", "kohnert-intertwine")},
    ),
    "phi collides": (
        _phi_sends_the_split_pair_to_the_row_pair,
        {
            (check, w): witness
            for w in SQUARE_W[3][1:]
            for check, witness in (
                ("kohnert", "phi collision at 1 1/2 2"),
                ("kohnert-intertwine", "move availability differs at 1 1/2 2, x=3, k=False"),
            )
        },
        {
            (check, w): witness
            for w in SQUARE_W[4][1:]
            for check, witness in (
                ("kohnert", "phi collision at 1 1/2 2"),
                ("kohnert-intertwine", "move availability differs at 1 1/2 2, x=3, k=False"),
            )
        },
    ),
    "phi_inverse drops a single mark": (
        _phi_inverse_drops_a_single_mark,
        _each(
            "kohnert",
            {
                (1, 3, 2): "phi_inverse(phi(D)) != D at 1 1/2 2,3",
                (2, 3, 1): "phi_inverse(phi(D)) != D at 1 1,2/2 3",
            },
        ),
        _each(
            "kohnert",
            {
                (1, 3, 2, 4): "phi_inverse(phi(D)) != D at 1 1/2 2,3",
                (1, 4, 2, 3): "phi_inverse(phi(D)) != D at 1 1/2 2,3",
                (2, 3, 1, 4): "phi_inverse(phi(D)) != D at 1 1,2/2 3",
                (2, 4, 1, 3): "phi_inverse(phi(D)) != D at 1 1,2/2 3",
                (3, 4, 1, 2): "phi_inverse(phi(D)) != D at 1 1,2/2 3",
            },
        ),
    ),
    "phi_inverse raises at one tableau": (
        _phi_inverse_raises_at_one_tableau,
        {("kohnert", (2, 3, 1)): "exception: RuntimeError('injected fault')"},
        {
            ("kohnert", w): "exception: RuntimeError('injected fault')"
            for w in ((2, 3, 1, 4), (2, 4, 1, 3), (3, 4, 1, 2))
        },
    ),
    "flagged set drops its last": (
        _flagged_set_drops_its_last,
        _each(
            "kohnert",
            {
                (1, 2, 3): "phi image mismatch: ['1 1/2 2']",
                (1, 3, 2): "phi image mismatch: ['1 1/3 3']",
                (2, 3, 1): "phi image mismatch: ['2 2/3 3']",
            },
        ),
        _each(
            "kohnert",
            {
                (1, 2, 3, 4): "phi image mismatch: ['1 1/2 2']",
                (1, 3, 2, 4): "phi image mismatch: ['1 1/3 3']",
                (1, 4, 2, 3): "phi image mismatch: ['1 1/4 4']",
                (2, 3, 1, 4): "phi image mismatch: ['2 2/3 3']",
                (2, 4, 1, 3): "phi image mismatch: ['2 2/4 4']",
                (3, 4, 1, 2): "phi image mismatch: ['3 3/4 4']",
            },
        ),
    ),
}


@pytest.mark.parametrize("fault", KOHNERT_FAULTS)
def test_kohnert_witnesses_under_a_fault(kohnert_fault, fault):
    inject, *expected = KOHNERT_FAULTS[fault]
    inject(kohnert_fault)
    for n, witnesses in zip((3, 4), expected):
        for cached in KOHNERT_CACHES:
            cached.cache_clear()
        assert _square_witnesses(n) == [witnesses, witnesses], n


# -- fault injection in the skyline check --------------------------------------


def test_a_psi_collision_fails_the_skyline_check(monkeypatch):
    """With every skyline of a shape sent to the psi image of the first one,
    the skyline record's psi images refuse to build, and each skyline case
    of more than one skyline fails with that exception as its witness."""
    real = skyline._psi_code

    def first_of_its_shape(codes, columns):
        shape = [0] * codes.n
        for levels in columns:  # the bottom anchor of column c is c
            shape[levels[0][0].bit_length() - 2] = len(levels)
        first = skyline.enumerate_skyline(tuple(shape), codes.n)[0]
        return real(codes, [skyline._levels(cells) for _, cells in first.columns])

    monkeypatch.setattr(skyline, "_psi_code", first_of_its_shape)
    skyline.skyline_table.cache_clear()
    try:
        cases = iter_cases("skyline-bijection", Bounds(max_n=3, max_side=2))
        results = [run_case("skyline-bijection", c) for c in cases if c["check"] == "skyline" and c["n"] == 3]
    finally:
        monkeypatch.undo()
        skyline.skyline_table.cache_clear()
    witnesses = {(tuple(r.case["shape"]), tuple(r.case["w"])): r.witness for r in results if r.status == "fail"}
    assert len(results) == 12
    assert witnesses == {
        ((1,), (2, 1, 3)): "exception: AssertionError(\"psi is not injective at SetValuedTableau('1,2', n=3)\")",
        ((1,), (3, 1, 2)): "exception: AssertionError(\"psi is not injective at SetValuedTableau('1,2,3', n=3)\")",
        ((2,), (2, 1, 3)): "exception: AssertionError(\"psi is not injective at SetValuedTableau('1 1,2', n=3)\")",
        ((2,), (3, 1, 2)): "exception: AssertionError(\"psi is not injective at SetValuedTableau('1 1,2,3', n=3)\")",
        ((1, 1), (1, 3, 2)): "exception: AssertionError(\"psi is not injective at SetValuedTableau('1/2,3', n=3)\")",
        ((1, 1), (2, 3, 1)): "exception: AssertionError(\"psi is not injective at SetValuedTableau('1,2/3', n=3)\")",
        ((2, 2), (1, 3, 2)): "exception: AssertionError(\"psi is not injective at SetValuedTableau('1 1/2 2,3', n=3)\")",
        ((2, 2), (2, 3, 1)): "exception: AssertionError(\"psi is not injective at SetValuedTableau('1 1,2/2 3', n=3)\")",
    }


# -- fault injection in the operator checks ------------------------------------
# Each fault makes one operator of the ring wrong at a single index and runs
# every case of one operator-algebra check at the default bounds.  The
# failure count, first witness and the SHA-256 of every failing (case,
# witness) pair were read off the checks when each chain was applied letter
# by letter from the monomial and each Lascoux polynomial and atom was built
# by `lascoux` and `lascoux_atom`.


def _varpi_is_pi_at_index_1(monkeypatch):
    """varpi_1 replaced by pi_1: still idempotent, but no longer braids
    with varpi_2."""
    varpi = BetaPolynomial.demazure_lascoux
    monkeypatch.setattr(
        BetaPolynomial, "demazure_lascoux", lambda p, i: p.demazure(i) if i == 1 else varpi(p, i)
    )


def _atom_operator_is_zero_at_index_2(monkeypatch):
    atom = BetaPolynomial.demazure_lascoux_atom
    monkeypatch.setattr(
        BetaPolynomial,
        "demazure_lascoux_atom",
        lambda p, i: BetaPolynomial.zero(p.n) if i == 2 else atom(p, i),
    )


OPERATOR_FAULTS = {
    "varpi is pi at index 1": (
        _varpi_is_pi_at_index_1,
        "operator-relations",
        (2, "varpi braid relation fails at x^(0, 1, 0), i=1"),
        "f4ee2194491d32be41b7b0d305b70ac173c1e1c00e2675c50ba7de8573b54e9d",
    ),
    "atom operator is zero at index 2": (
        _atom_operator_is_zero_at_index_2,
        "bruhat-atom-sum",
        (45, "atom sum mismatch at w=[3, 1, 2]"),
        "ea73fae14bac21352b9a046b3a69ae3511408877dd07d1e4005f0405f0c54816",
    ),
}


@pytest.mark.parametrize("fault", OPERATOR_FAULTS)
def test_operator_check_witnesses_under_a_fault(monkeypatch, fault):
    inject, check, expected, digest = OPERATOR_FAULTS[fault]
    inject(monkeypatch)
    cases = [case for case in iter_cases("operator-algebra", Bounds()) if case["check"] == check]
    results = [run_case("operator-algebra", case) for case in cases]
    failures = [(r.case, r.witness) for r in results if r.status == "fail"]
    assert (len(failures), failures[0][1]) == expected
    dump = json.dumps(failures, sort_keys=True)
    assert hashlib.sha256(dump.encode()).hexdigest() == digest


# -- fault injection at the names verify imports ---------------------------------
# Each fault replaces one name in verify and runs every case of one check of
# one suite, pinned the same way as OPERATOR_FAULTS (read off the checks
# before the coset representatives became sorting permutations; the
# enumerate_svt entries before the crystal table held codes only, the
# closure, enumerate_skyline and Lehmer code entries before the Kohnert
# graph held packed keys).


def _ideal_without_w(w):
    return bruhat_ideal(w) - {w}


def _lascoux_reversed(a, n):
    return lascoux(tuple(reversed(tuple(a))), n)


def _svt_without_its_last(n, shape):
    return enumerate_svt(n, shape)[:-1]


def _closure_without_its_last(a):
    return kohnert.closure(a)[:-1]


def _skylines_without_their_last(a, n):
    return skyline.enumerate_skyline(a, n)[:-1]


def _lehmer_code_reversed(w):
    return tuple(reversed(lehmer_code(w)))


IMPORT_FAULTS = {
    "Bruhat ideal drops w": (
        ("bruhat_ideal", _ideal_without_w),
        ("skyline-bijection", "skyline-sum", Bounds(max_n=4, max_side=2)),
        (38, "skyline sum over the Bruhat ideal differs from the polynomial"),
        "3ba4bbaa206db0010de58d0e7f4870ac654e2743366636891f70e6a740170e9e",
    ),
    "Lascoux polynomial of the reversed composition": (
        ("lascoux", _lascoux_reversed),
        ("character", "full-character", Bounds(max_n=4, max_cells=4)),
        (25, "character of all tableaux differs from the top polynomial"),
        "b1007440fb5756303d45b051a373c96a4583db9258fc4b70ef1c5fb43fac8f43",
    ),
    # the golden checks that read enumerate_svt, each one case
    "enumerate_svt drops its last tableau (flag)": (
        ("enumerate_svt", _svt_without_its_last),
        ("demazure-flag", "flag-golden", Bounds()),
        (1, "expected 13 tableaux, got 12"),
        "3fe62f8cfbf6aa36b2985a43059d1242138611370e9dfb6075a7ba3758c31dfb",
    ),
    "enumerate_svt drops its last tableau (character)": (
        ("enumerate_svt", _svt_without_its_last),
        ("character", "character-golden", Bounds()),
        (1, "tableau character disagrees with the golden polynomial"),
        "a250729d77d0fa286bf9e427a67279369fc929f1eb75aa8f7d75eb6fd48c2331",
    ),
    "closure drops its last diagram": (
        ("closure", _closure_without_its_last),
        ("kohnert-bijection", "kohnert-golden", Bounds()),
        (1, "closure of (0,2,2) differs from the golden 13 diagrams"),
        "232d25607d56514bd7a2e07fb227371d59bb3b9a74e799e067f27c6ea281de67",
    ),
    "enumerate_skyline drops its last skyline": (
        ("enumerate_skyline", _skylines_without_their_last),
        ("skyline-bijection", "skyline-golden", Bounds()),
        (1, "expected 4 skylines for (2,0,2), got 3"),
        "cda6b00e7c2fa47ad2400ec06783f94bf9877cdfaf4d33718fc58bcff98c36d1",
    ),
    # square22-long passes: its Lehmer code reads the same reversed
    "Lehmer code reversed": (
        ("lehmer_code", _lehmer_code_reversed),
        ("grothendieck-vexillary", "groth-golden", Bounds()),
        (2, "Lehmer code (0, 0, 2, 0, 4) differs from the weight"),
        "9ed04865e07bf7ce7a83233cb0d023dec317d2039a927c2b96a076bb3fe80b1a",
    ),
}


@pytest.mark.parametrize("fault", IMPORT_FAULTS)
def test_check_witnesses_under_a_fault_at_an_import(monkeypatch, fault):
    (name, replacement), (suite, check, bounds), expected, digest = IMPORT_FAULTS[fault]
    monkeypatch.setattr(verify, name, replacement)
    cases = [case for case in iter_cases(suite, bounds) if case["check"] == check]
    results = [run_case(suite, case) for case in cases]
    failures = [(r.case, r.witness) for r in results if r.status == "fail"]
    assert (len(failures), failures[0][1]) == expected
    dump = json.dumps(failures, sort_keys=True)
    assert hashlib.sha256(dump.encode()).hexdigest() == digest


# Every check of every suite that asserts (all but the report-only
# conjecture-scan) fails under some fault pinned above.  One mutant has no
# entry because no check can tell it apart: dropping the excess half of
# inverse-ops' weight law.  The weight sums to the number of boxes plus the
# excess, and e_i and f_i keep the boxes, so an image of the right weight
# has the right excess.


def test_every_asserting_check_has_a_pinned_fault():
    pinned = {(SUBSET_CHECKS[check], check) for _, first, _ in SUBSET_FAULTS.values() for check in first}
    pinned |= {suite_check for _, suite_check, *_ in MEMBERSHIP_FAULTS.values()}
    pinned |= {suite_check for _, suite_check, *_ in WITNESS_FAULTS.values()}
    pinned |= {("kohnert-bijection", check) for _, *runs in KOHNERT_FAULTS.values() for run in runs for check, _ in run}
    pinned |= {("operator-algebra", check) for _, check, *_ in OPERATOR_FAULTS.values()}
    pinned |= {(suite, check) for _, (suite, check, _), *_ in IMPORT_FAULTS.values()}
    asserting = {(name, check) for name, suite in SUITES.items() if not suite.report for check in suite.checks}
    assert len(asserting) == 21
    assert pinned == asserting


def _recorded(method, seen):
    """method, appending each result to seen."""

    def recording(p, i):
        seen.append(method(p, i))
        return seen[-1]

    return recording


def test_the_atom_sum_walk_builds_lascoux_polynomials_and_atoms(monkeypatch):
    """bruhat-atom-sum builds the Lascoux polynomial and atom of each coset
    rep after the identity, in coset_reps order, with one demazure_lascoux
    and one demazure_lascoux_atom call; each result must be what `lascoux`
    and `lascoux_atom` give, for every partition of at most 5 cells at n <= 4."""
    seen = {"demazure_lascoux": [], "demazure_lascoux_atom": []}
    for name, results in seen.items():
        monkeypatch.setattr(BetaPolynomial, name, _recorded(getattr(BetaPolynomial, name), results))
    walked = 0
    for n in range(2, 5):
        for shape in verify._partitions(5, n):
            lam = _pad(shape, n)
            compositions = [act(v, lam) for v in coset_reps(lam, n)[1:]]
            expected = {
                "demazure_lascoux": [lascoux(a, n) for a in compositions],
                "demazure_lascoux_atom": [lascoux_atom(a, n) for a in compositions],
            }
            for results in seen.values():
                results.clear()
            case = {"check": "bruhat-atom-sum", "n": n, "shape": list(shape)}
            assert run_case("operator-algebra", case).status == "pass"
            assert seen == expected, case
            walked += len(compositions)
    assert walked == 157
