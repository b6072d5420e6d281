"""Golden values of Tietze simplification.

Each case pins the simplified presentation, every image of an original
generator, the pass count and the budget flag of one ``tietze_simplify``
result.  The values were recorded from the non-incremental implementation
(re-normalize, rescan and substitute into every relator on every pass), so
any change to the elimination order, the duplicate removal or the image
bookkeeping shows up here as a changed digest.
"""

import hashlib
import warnings

import pytest

from lefgroup import fibration
from lefgroup.families import abelian_group_plan, family_presentation, family_spec
from lefgroup.presentations import (
    TietzeResult,
    format_presentation,
    parse_presentation,
    tietze_simplify,
)
from lefgroup.words import format_word

SOURCES = {
    "cyclic": "< x | x^3 >",
    "z2": "< x, y | x y x^-1 y^-1 >",
    "one_relator": "< x, y | x^2 y^3 x^-1 y^2 >",
    "triangle": "< x, y | x^2, y^3, x y x y >",
    "rank3_two": "< x, y, z | x y z, x^2 y^-3 >",
    "rank3_three": "< x, y, z | x y x^-1 y^-1, y z^2 y^-1 z^-1, x^3 z^-2 >",
}
GENERA = (None, 12, 21, 30)

FAMILIES = (
    [("braid", n) for n in (3, 4, 5, 6)]
    + [("symmetric", n) for n in (4, 5, 6)]
    + [("sphere_mcg", n) for n in (3, 4, 5)]
    + [("artin", n) for n in (5, 6)]
    + [("hyperelliptic", g) for g in (1, 2, 3)]
    + [("surface", 2), ("abelian", 2, 1, 4)]
)


def fingerprint(result: TietzeResult) -> tuple[int, bool, str]:
    names = result.presentation.generators
    lines = [format_presentation(result.presentation)]
    lines += [f"{name} -> {format_word(result.images[name], names)}"
              for name in result.original_generators]
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    return result.passes, result.budget_exhausted, digest


def realize_quotient(source: str, genus: int | None) -> fibration.PlanQuotient:
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", fibration.TransversalityWarning)
        r = fibration.realize_group(parse_presentation(SOURCES[source]), genus=genus)
    return r.quotient


EXPECTED_REALIZE = {
    "cyclic@None": (4, False, '25e58408b42d66d00d0a57c83685bc5cc0a326b37819bc14ae666d657082f4ce'),
    "cyclic@12": (24, False, '10877f6993a4f6ffc18ab64e1108cdab59c10d9accf83391dbb7e89b4727d0f6'),
    "cyclic@21": (42, False, '810dd3460026f7aae9e4b21454baea7108c98d3df1b0b92a437b4db21e4e45a3'),
    "cyclic@30": (60, False, 'addf55510d577a53afbb508fcefcc70c31d7b36f3b4099358295ab6115d83090'),
    "z2@None": (13, False, 'e5caf631f8b7d6f79904aa4a4381c12f27ce7d6d4aeb06c126245a22788abfb0'),
    "z2@12": (23, False, '4b45bb5bed3a604de9d7a99dfeb6c1384f664c3a00fcb2392653a79887c8a03c'),
    "z2@21": (41, False, 'b5ab2f3296d806cd0efcb1dae3985405445f6726df766d7ec5619562c327f739'),
    "z2@30": (59, False, '54e090cb25575e05fae2a897fcd0067363219e93082304594edc7da9d7bed27e'),
    "one_relator@None": (13, False, '3e6f789d7219ba933490ec5fcf55b583e3db0e9892db3ef502ea235417b0f204'),
    "one_relator@12": (23, False, 'ad80cf26e626ac00e59db6867d2935896875fc001245b34768f8d3c83a5eedb0'),
    "one_relator@21": (41, False, '7efa67868796dc96a667848b2c5740dbec6c504ec0958762d7b36b13c7a7c4da'),
    "one_relator@30": (59, False, '04ab51e027122bad019306ea6dea3de2e611e02b114d7bd56e19e8da9e9e9ee8'),
    "triangle@None": (13, False, '5d5247d1f35ad874acb4720fed95fde4b22de6649e13aff368330b12f55cb030'),
    "triangle@12": (23, False, 'eaac9ad0bd27e294ac2c7979c6184058a8e13c5b170c06268ebf39cea7be1c0c'),
    "triangle@21": (41, False, 'a7af86b216db8523fc9e4ab120f851c6825363fc060b4b9b94f6cfddf8d63f4b'),
    "triangle@30": (59, False, 'ecbca8a83ee40a434c478062a3bd29cac7435e6cd89dd5876d9b7cc76f2e6c69'),
    "rank3_two@None": (15, False, '2c13c0ccfdcfc566f90665fcccf58eea89258fcc12ddde0de58dcf92f4bb2848'),
    "rank3_two@12": (23, False, '61e017ec5e48c5d9e61f414e4d22f35c0b876fef72ecff7d44600fc5a1508863'),
    "rank3_two@21": (41, False, 'b4898fe6503e187ed6e1f04d66b1b102a1cfaa972b575872faafdedbe99f09aa'),
    "rank3_two@30": (59, False, '4eae292778873aa63e94da05d917fa0986c73ca19f2eff4bc2515032389d6569'),
    "rank3_three@None": (16, False, 'a0680c8e830a67254f11612fbbf6cca8fbec217c77b769ff7fdcacd1b2a6dc78'),
    "rank3_three@12": (22, False, '20709118f90e0ef8c8bd3bf50d87efb09dab51de7bc625f6a3c72ddb60c3b8d7'),
    "rank3_three@21": (40, False, '4c9ba5ada74a38d6cadb8712fe5b4adf0ed72e5ff7211ec6786f98f51152f921'),
    "rank3_three@30": (58, False, 'f7efdc891bcd4d123b6d36a4c3fe6008c9c2e88890b3c78b09cc71fad414f99c'),
}

EXPECTED_FAMILY = {
    "braid-3": (2, False, '2d598b8080d6e7758bfd4b0b981188143f1924adbed74295b57164294d6133bf'),
    "braid-4": (1, False, 'd86105b36a543a8768185a4d91bb467f20d8fee64f35aef13f71ef780423d206'),
    "braid-5": (1, False, '4a5ca4e1c38fcdbcb3d0b12934244aa21d3aabbc827ed695ce0338d2e642c0d9'),
    "braid-6": (1, False, 'ebddb43b782c6685dac130822c5d4b0ecc79567cff7023258a3774a0d9a4cd10'),
    "symmetric-4": (1, False, 'd00b736f1fb85c464f849cd158a31c918cd16d28a2813329302ac609b73e9fdb'),
    "symmetric-5": (1, False, 'b1c5b27f3107299a73da9f1e9c74add52c56fe8d91d5111c980413a7ae14b13f'),
    "symmetric-6": (1, False, '9954b9ad84375eb24c098d884f86dea89c30f36f6273e19a6bbfef7a5eafcb7e'),
    "sphere_mcg-3": (3, False, '2724b2f4ba3157eae24934c2aae96b718fbec397943d1197623cd39f298de901'),
    "sphere_mcg-4": (2, False, '684e4afdc66486bc5ca24226e36469ec3fc5b0cb816058dec02d82c618c319cc'),
    "sphere_mcg-5": (6, False, 'e17e9cbd22100a71fd90c2f19d21b1ab64deefcd5faadc30f842ad7ad3fb393d'),
    "artin-5": (1, False, '1d967a9e217a92893fad39ceb993ff7a54f5e6acaf8c30f1bce12ce976497f17'),
    "artin-6": (1, False, '316df8f97aa47cf9f34d55a21806b3120d13b8db95d531a6a4930d6815fe9a29'),
    "hyperelliptic-1": (2, False, '2383bafadda76f503cb90570a18c08f941e65f9ebc86a0c3b3c5a99655ac63aa'),
    "hyperelliptic-2": (6, False, '1ccd83d09f3bfd1f36735ed35d2a399183e51a0e968752d37b1de4be110ebd03'),
    "hyperelliptic-3": (10, False, '1c142db7ba98d96415f8b754b0f02a723e1fc1e2f3470eb44d9b07f0e6fda6e8'),
    "surface-2": (1, False, 'febd61640142ca5abeaa48959a41ee063e9910ac5ff68e437ecff98a2484bd18'),
    "abelian-2-1-4": (1, False, '6e8d468453ffc1a41c3b60ad5900a216bcfab8ad9f12afb156e2db7411399990'),
}

EXPECTED_ABELIAN_PLAN = (7, False, 'f36a886aae79e466a5b24118a0977eca69a24cdfa0e63fee3519e9f2c75cb04a')

EXPECTED_BUDGET = {
    "realize-1": (1, True, '8ed68ee81ec76f11250b4277cf16ef8d4caaf6cc635b64fbf51dcb8730ab051b'),
    "realize-7": (7, True, '7dee468fa77635f6fe882f0d12371eac1b036bf71ee1850814257646500c711a'),
    "realize-15": (15, True, '0cdb7a3b30984980d9d33382b6f3033e906c3cc79f9064422d9f2ec970c7b9b6'),
    "realize-21": (21, True, '20709118f90e0ef8c8bd3bf50d87efb09dab51de7bc625f6a3c72ddb60c3b8d7'),
    "realize-22": (22, False, '20709118f90e0ef8c8bd3bf50d87efb09dab51de7bc625f6a3c72ddb60c3b8d7'),
    "hyperelliptic-2": (2, True, '6900d83ee8f5752072b8ac70bc34296ea1452175e3e47fb3d26ceb212c60cfaa'),
    "hyperelliptic-5": (5, True, '1ccd83d09f3bfd1f36735ed35d2a399183e51a0e968752d37b1de4be110ebd03'),
    "hyperelliptic-6": (6, False, '1ccd83d09f3bfd1f36735ed35d2a399183e51a0e968752d37b1de4be110ebd03'),
}


@pytest.mark.parametrize("source,genus", [(s, g) for s in SOURCES for g in GENERA])
def test_realize_quotient(source, genus):
    assert fingerprint(realize_quotient(source, genus).simplification) == EXPECTED_REALIZE[f"{source}@{genus}"]


@pytest.mark.parametrize("spec", FAMILIES, ids=lambda s: "-".join(map(str, s)))
def test_family_rewrite(spec):
    p = family_presentation(family_spec(*spec))
    key = "-".join(map(str, spec))
    assert fingerprint(tietze_simplify(p, rewrite=True)) == EXPECTED_FAMILY[key]


def test_abelian_plan_quotient():
    _, quotient = abelian_group_plan(2, 2, (2, 6))
    assert fingerprint(quotient.simplification) == EXPECTED_ABELIAN_PLAN


@pytest.mark.parametrize("budget", [1, 7, 15, 21, 22])
def test_budget_stops_mid_elimination(budget):
    # the full run takes 22 passes, the last of which finds nothing to do
    raw = realize_quotient("rank3_three", 12).raw
    result = tietze_simplify(raw, budget=budget, rewrite=False)
    assert fingerprint(result) == EXPECTED_BUDGET[f"realize-{budget}"]


@pytest.mark.parametrize("budget", [2, 5, 6])
def test_budget_stops_mid_rewrite(budget):
    p = family_presentation(family_spec("hyperelliptic", 2))
    result = tietze_simplify(p, budget=budget, rewrite=True)
    assert fingerprint(result) == EXPECTED_BUDGET[f"hyperelliptic-{budget}"]
