import hashlib
import json

import pytest

from kcrystals import crystal, keys
from kcrystals.tableaux import SetValuedTableau
from kcrystals.verify import SUITES, Bounds, iter_cases, run_case, run_suite

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

TABLE_CACHES = (
    crystal.crystal_table,
    crystal.demazure_subset,
    keys._right_keys,
    keys._max_right_keys,
    keys._stars,
    keys._rotations,
)


def _clear_tables():
    for cached in TABLE_CACHES:
        cached.cache_clear()


@pytest.fixture
def kernel(monkeypatch):
    """Sets kernel operators for the tables built inside a test; the tables
    and every cache read from them are cleared before and after."""
    _clear_tables()
    yield lambda op, fn: monkeypatch.setitem(crystal._KERNEL, op, fn)
    monkeypatch.undo()
    _clear_tables()


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
