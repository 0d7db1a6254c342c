import hashlib
import json

import pytest

from kcrystals.verify import SUITES, Bounds, iter_cases, run_case

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


def test_every_suite_has_a_frozen_case_list():
    assert list(FROZEN_CASES) == list(SUITES)


@pytest.mark.parametrize("suite", FROZEN_CASES)
def test_case_lists_are_frozen(suite):
    cases = iter_cases(suite, Bounds())
    digest = hashlib.sha256(json.dumps(cases, sort_keys=True).encode()).hexdigest()
    assert (len(cases), digest) == FROZEN_CASES[suite]


def test_run_case_rejects_a_check_of_another_suite():
    case = {"check": "k-ops", "n": 2, "shape": [1]}
    assert run_case("k-crystal-axioms", case).status == "pass"
    with pytest.raises(ValueError, match="no check 'k-ops'"):
        run_case("character", case)
    with pytest.raises(ValueError, match="unknown suite"):
        run_case("not-a-suite", case)
