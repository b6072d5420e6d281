"""Golden values of fibration plans.

Each case pins one plan through its observable content: the sha256 of
its kill list (one formatted word per line), its twist-letter count, its
block count, and the simplified presentation of its quotient.  The
values were recorded before plans stored their twist chains, so a change
in how blocks are represented that alters the kill list, the letter
count, the number of blocks or the quotient shows up here.
"""

import hashlib
import random
import warnings

import pytest

from lefgroup import fibration as fib
from lefgroup.families import abelian_group_plan
from lefgroup.presentations import format_presentation, parse_presentation
from lefgroup.surface import SurfaceGroup
from lefgroup.words import Word, format_word

SOURCES = {
    "cyclic": "< x | x^3 >",
    "z2": "< x, y | x y x^-1 y^-1 >",
    "one_relator": "< x, y | x^2 y^3 x^-1 y^2 >",
    "triangle": "< x, y | x^2, y^3, x y x y >",
    "rank3_two": "< x, y, z | x y z, x^2 y^-3 >",
    "rank3_three": "< x, y, z | x y x^-1 y^-1, y z^2 y^-1 z^-1, x^3 z^-2 >",
}
GENERA = (None, 12, 21, 30)


@pytest.fixture(autouse=True)
def quiet_transversality():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", fib.TransversalityWarning)
        yield


def fingerprint(plan: fib.FibrationPlan, quotient: fib.PlanQuotient) -> tuple[str, int, int, str]:
    names = SurfaceGroup(plan.genus).generator_names
    kill_text = "\n".join(format_word(w, names) for w in plan.kill_list)
    return (hashlib.sha256(kill_text.encode()).hexdigest(), plan.twist_letter_count,
            len(plan.blocks), format_presentation(quotient.presentation))


EXPECTED_REALIZE = {
    'cyclic@None': ('e7b15589d4b0b56356323f16dfcc3ec8d3e2c4d51e37eeb1b1803278a3201189', 48, 6, '< a1 | a1^3 >'),
    'cyclic@12': ('a618a5d4c6917de1edd4606e005e224f1dcfd51d89c64dfb25c02ac15d8d1fb9', 1008, 36, '< a1 | a1^3 >'),
    'cyclic@21': ('c251a074e1c493b8e9a2b6f1ed52ec35e88d6f9d36c3156e6da8edc6b2c175bf', 3224, 62, '< a1 | a1^3 >'),
    'cyclic@30': ('3ac705cb8f28cfbac157d93e7309c81aed655e2b8e4942932a2965538950a2dc', 5760, 90, '< a1 | a1^3 >'),
    'z2@None': ('7a4157274b4f0848e48421e9a36be176165bcd2bd9219d7538af17441118c535', 432, 18, '< a1, a2 | a1 a2 a1^-1 a2^-1 >'),
    'z2@12': ('fb06c7e9fbf67244c4ad1e996164b1d02186ffeb6ea12ad702f9cb76ce29c741', 952, 34, '< a1, a2 | a1 a2 a1^-1 a2^-1 >'),
    'z2@21': ('cde5e280a9e6640492b658c1ada014d967cd4a4d5ac6d9dc5747944db96b7702', 3120, 60, '< a1, a2 | a1 a2 a1^-1 a2^-1 >'),
    'z2@30': ('6ff6f2e38d69dc4c2cffb2e2053cfd224307b131cf71ec90865e30b993395c1d', 5632, 88, '< a1, a2 | a1 a2 a1^-1 a2^-1 >'),
    'one_relator@None': ('5f6d571ef1f1168cc633ef027a5253694023589c43e1c1d9424071b930a39451', 432, 18, '< a1, a2 | a1^2 a2^3 a1^-1 a2^2 >'),
    'one_relator@12': ('cfebd44a90c9d959abc49daa82ee10938d0fa90b862242ee8233698e2abfb2c7', 952, 34, '< a1, a2 | a1^2 a2^3 a1^-1 a2^2 >'),
    'one_relator@21': ('d5930093d3bcbf1e68dd7342d57cb5d8b65c18e23424fbbe0ed0f0fb214a168e', 3120, 60, '< a1, a2 | a1^2 a2^3 a1^-1 a2^2 >'),
    'one_relator@30': ('dad16873786e39a2457afed574b451816aca4e2ac674ec787ae64eb44bc3644f', 5632, 88, '< a1, a2 | a1^2 a2^3 a1^-1 a2^2 >'),
    'triangle@None': ('55b97739a57029498426ce682178d436cdac4f0130a177b1763d47f56fd9feb3', 864, 36, '< a1, a2 | a1^2, a2^3, a1 a2 a1 a2 >'),
    'triangle@12': ('e74d377223f4888c83b939cd1eef8264af748dc8f5011a51849e435450072a04', 1904, 68, '< a1, a2 | a1^2, a2^3, a1 a2 a1 a2 >'),
    'triangle@21': ('91de5a4a4b8f0bd6f5dad0847c226065d94ee065a2eac665ce9d89851421c013', 6240, 120, '< a1, a2 | a1^2, a2^3, a1 a2 a1 a2 >'),
    'triangle@30': ('16829f2e024e3cf48fdd230a8d3bfac41af08393005664a697c86cd5e07fab78', 11264, 176, '< a1, a2 | a1^2, a2^3, a1 a2 a1 a2 >'),
    'rank3_two@None': ('857f6417e8f0618b3ad879ddfacf1967a57664e9f5caa1c004ea812eaf352ac2', 600, 30, '< a1, a2 | a1^2 a2^-3 >'),
    'rank3_two@12': ('1717197473a07e9c908bf6df6082b419fdb3814816540cb3e0ca144f93a3fe58', 1344, 48, '< a1, a2 | a1^2 a2^-3 >'),
    'rank3_two@21': ('c5b30aadb1116b5654a11b90149cecdce48dbc15ca50c7fab13786bc3ebaf25c', 4524, 87, '< a1, a2 | a1^2 a2^-3 >'),
    'rank3_two@30': ('918d54e7f2cf2fe7d5eadc9051b75b95ebe6f7275ea08f79c90023b6531b5e45', 8256, 129, '< a1, a2 | a1^2 a2^-3 >'),
    'rank3_three@None': ('cc1a96cfe076d99b2a94ab3e4a698c52745156512dc9c6c4e603951b72d08ed4', 1232, 44, '< a1, a2, a3 | a1 a2 a1^-1 a2^-1, a2 a3^2 a2^-1 a3^-1, a1^3 a3^-2 >'),
    'rank3_three@12': ('07ecb8bf64632937537d4392e02fac337ec78c8f6f70f04b29f28be021971db9', 1792, 64, '< a1, a2, a3 | a1 a2 a1^-1 a2^-1, a2 a3^2 a2^-1 a3^-1, a1^3 a3^-2 >'),
    'rank3_three@21': ('82764f5663a62a53c9c58526cecc4bf413f19e6b8ea373a3832b5ae0c91166d4', 6032, 116, '< a1, a2, a3 | a1 a2 a1^-1 a2^-1, a2 a3^2 a2^-1 a3^-1, a1^3 a3^-2 >'),
    'rank3_three@30': ('12c44d80d374a7b9eeba7677bf69fdf3b532c210aefc71f1c133d47592c80419', 11008, 172, '< a1, a2, a3 | a1 a2 a1^-1 a2^-1, a2 a3^2 a2^-1 a3^-1, a1^3 a3^-2 >'),
}

EXPECTED_ABELIAN = {
    (3, 0, ()): ('a0faf696ee68c791227fbb08eaac7be7e3005375798523ad0b85a349c787bf7b', 60, 5, '< a1, a2, b1 | a1^2 b1 a1^-2 b1^-1, b1^-1 a1 b1 a1^-1, a1 a2^-1 a1^-1 b1^-1 a1 b1 a1^-1 a2, a2 b1 a2^-1 a1 b1^-1 a1^-1 b1^-1 a1 b1 a1^-1 >'),
    (4, 0, ()): ('b1f8e50493f301c8a3bcbf3be79549d055e0905804a317fab2f5781f05be8916', 140, 7, '< a1, a2, b1, b2 | a1 b1^-1 a1 b1 a1^-1 a2 b2 a2^-1 a1 b2^-1 a1^-1 a2 b1 a2^-1 b1^-1 a1 b1 b2 a1^-1 a2 b2^-1 a2^-1 a1 b1^-1 a1^-1 b1 a1^-1 a2 b1^-1 a1 b1 a1^-1 a2 b2 a2^-1 b1^-1 a1 b1 b2 a1^-1 a2 b2^-1 a2^-1 a1 b1^-1 a1^-1 b1 a2^-1 a1 b1^-1 a1^-1 b1 b2^-1 b1^-1 a1 b1 a1^-1 a2 b2 a2^-1 a1 b2^-1 b1^-1 a1^-1 b1 a2 b1^-1 a2^-1, b2^-1 b1^-1 a1 b1 a1^-1 a2 b2 a2^-1, b2^-1 b1^-1 a1 b1 a1^-1 a2 b2 a2^-1 b1^-1 a1 b1 a1^-1, b2^-1 b1^-1 a1 b1 a1^-1 a2 b2 a2^-1 b1^-1 a1 b1 b2 a1^-1 a2 b2^-1 a2^-1 a1 b1^-1 a1^-1 b1, a1 b1 a1^-1 a2 b2 a2^-1 a1 b2^-1 b1^-1 a1^-1 b1 a2 b1^-1 a2^-1 a1 b2 a1^-1 a2 b2^-1 a2^-1 a1 b1^-1 a1^-1 b1, a1 b1 a1^-1 a2 b2 a2^-1 a1 b2^-1 b1^-1 a1^-1 b1 a2 b1^-1 a2^-1, a1 a2^-1 a1 b2 a1^-1 a2 b2^-1 a2^-1 a1 b1^-1 a1^-1 b1 a1^-1 a2 b1^-1 a1 b1 a1^-1 a2 b2 a2^-1 a1 b2^-1 b1^-1 a1^-1 b1 a2 b2^-1 a2^-1 a1 b1^-1 a1^-1 b1 b2, b1 b2 b1^-1 a1 b1^-1 a1^-1 b1 a1 b2^-1 b1^-1 a1^-1 b1 b2^-1 b1^-1 a1 b1 a1^-1 a2 b2 a2^-1, b2^-1 a2 b2 a2^-1 a1 b1^-1 a1^-1 b1 >'),
    (0, 3, (2, 2, 2)): ('c66a06964ad40fe2993ef22dabe3162445fac53288e0d57edabe4fc1cc115ac1', 96, 8, '< a1, a2, b1 | a1^4 b1 a1^-4 b1^-1, b1^-1 a1 b1 a1^-1, a1^-3 b1^-1 a1 b1, a1^2, a1 a2^-1 a1^-3 b1^-1 a1 b1 a1^-1 a2, a2 b1 a2^-1 a1 b1^-1 a1 b1^-1 a1 b1 a1^-1, b1^3 a1^3 b1^-1 a1^-1, a2^2 >'),
    (2, 2, (2, 4)): ('c39b8976e9af109a8f8e45343c0b7f9caecc83918d5c7f757a1afbdff11469dd', 180, 9, '< a1, a2, b1, b2 | a1^2 b1^-1 a1 b1 a1^-1 a2 b2 a2^-1 a1 b2^-1 a1^-2 b1 b2 a1^-1 a2 b2^-1 a2^-1 a1 b1^-1 a1^-1 b1 a1^-1 a2 b1^-1 a1 b1 a1^-1 a2 b2 a2^-1 b1^-1 a1 b1 b2 a1^-1 a2 b2^-1 a2^-1 a1 b1^-1 a1^-1 b1 a2^-1 a1 b1^-1 a1^-1 b1 b2^-1 b1^-1 a1 b1 a1^-1 a2 b2 a2^-1 a1 b2^-1 b1^-1, b2^-1 b1^-1 a1 b1 a1^-1 a2 b2 a2^-1, b2^-1 b1^-1 a1 b1 a1^-1 a2 b2 a2^-1 b1^-1 a1 b1 a1^-1, b2^-1 b1^-1 a1 b1 a1^-1 a2 b2 a2^-1 b1^-1 a1 b1 b2 a1^-1 a2 b2^-1 a2^-1 a1 b1^-1 a1^-1 b1, a1 b1 a1^-1 a2 b2 a2^-1 a1 b2^-1 b1^-1 a1^2 b2 a1^-1 a2 b2^-1 a2^-1 a1 b1^-1 a1^-1 b1, a1^2 b1 a1^-1 a2 b2 a2^-1 a1 b2^-1 b1^-1, a1 a2^-1 a1 b2 a1^-1 a2 b2^-1 a2^-1 a1 b1^-1 a1^-1 b1 a1^-1 a2 b1^-1 a1 b1 a1^-1 a2 b2 a2^-1 a1 b2^-1 b1^-1 a1^-1 b1 a2 b2^-1 a2^-1 a1 b1^-1 a1^-1 b1 b2, b1 b2 b1^-1 a1 b1^-1 a1^-1 b1 a1 b2^-1 b1^-1 a1^-1 b1 b2^-1 b1^-1 a1 b1 a1^-1 a2 b2 a2^-1, a2 b1^-1 a2^-1 a1^-2 b1, b2^-1 a2 b2 a2^-1 a1 b1^-1 a1^-1 b1, a2^4 a1 b2 a1^-1 b2^-1 >'),
    (1, 3, (2, 3, 5)): ('1cb65d8b7caecea8c03acc2ccae97a833275ef8c116bfcf6e02e3d2377aa857d', 200, 10, '< a1, a2, b1, b2 | a1^2 b1^-6 a1 b1 a1^-3 b1^6 a1^-1 a2 b1^-1 a1 b1 a1^-1 a2 b2 a2^-1 b1^-1 a1 b1 b2 a1^-1 a2 b2^-1 a2^-1 a1 b1^-1 a1^-1 b1 a2^-1 a1 b1^-1 a1^-1 b1 b2^-1 b1^-1 a1 b1 a1^-1 a2 b2 a2^-1 a1 b2^-1 b1^-1, b2^-1 b1^-1 a1 b1 a1^-1 a2 b2 a2^-1, b2^-1 b1^-1 a1 b1 a1^-1 a2 b2 a2^-1 b1^-1 a1 b1 a1^-1, b2^-1 b1^-1 a1 b1 a1^-1 a2 b2 a2^-1 b1^-1 a1 b1 b2 a1^-1 a2 b2^-1 a2^-1 a1 b1^-1 a1^-1 b1, b1^5 a1 b1 a1^-1 a2 b2 a2^-1 a1 b2^-1 b1^-1 a1^-1, a1 b1 a1^-1 a2 b2 a2^-1 a1 b2^-1 b1^-1 a1^2 b1^-1 a1^-1 b1^6, a1^2 b1 a1^-1 a2 b2 a2^-1 a1 b2^-1 b1^-1, a1 a2^-1 a1 b1^-1 a1^-1 b1^6 a1^-1 a2 b1^-1 a1 b1 a1^-1 a2 b2 a2^-1 a1 b2^-1 b1^-1 a1^-1 b1 a2 b2^-1 a2^-1 a1 b1^-1 a1^-1 b1 b2, b1 b2 b1^-1 a1 b1^-1 a1^-1 b1 a1 b2^-1 b1^-1 a1^-1 b1 b2^-1 b1^-1 a1 b1 a1^-1 a2 b2 a2^-1, a2 b1^-1 a2^-1 a1^-2 b1, b2^-1 a2 b2 a2^-1 a1 b1^-1 a1^-1 b1, a2^3 a1 b2 a1^-1 b2^-1 >'),
}

EXPECTED_FREE = {
    'free_group-2': ('f7a4f064daf0b4676ece70463d895f98acb4f2106423279d4bd83aa178ac8e50', 24, 3, '< a1 | >'),
    'free_group-3': ('949a74d640b3286934709236bc035a9f5493eba2ad7a0b32e8c89d38c1c0ae57', 64, 4, '< a1 | >'),
    'free_group-4': ('208f8365f5bbe20dbdf523f9135f486429a2c6f1cfc3ce7c01f8f4059a0ba784', 60, 5, '< a1, a2 | >'),
    'free_group-5': ('156093260a54b05be79d56d0d9e21342e2ff74499bbe91777b3ef48f349ae6e0', 120, 6, '< a1, a2 | >'),
    'free_group-6': ('52de2881bad83c57f8acad1606d716164d0e91baca75e69b320970feb0b797cc', 112, 7, '< a1, a2, a3 | >'),
    'free_group-7': ('cfa0231b129490b09694d66944fce14b3540f00d2d8faf78c7b100aae4670c6c', 192, 8, '< a1, a2, a3 | >'),
    'free_product-3': ('433b34843f0ad9aacb2012369d1dd7767d6677894e07e53fec76fc01fa9c37ed', 32, 2, '< a1, b1 | a1^2 b1 a1^-2 b1^-1, b1^-1 a1 b1 a1^-1 >'),
    'free_product-4': ('dfc9aa41a451740e115db5d449c12d468b2a7038de33d78fe5d87d602262aecc', 36, 3, '< a1, a2, b1 | a1^2 b1 a1^-2 b1^-1, b1^-1 a1 b1 a1^-1 >'),
    'free_product-5': ('2bc93638cef77945e74e312ee68362cc6883e8e1fab9d0f107fd839537e81edf', 80, 4, '< a1, a2, b1 | a1^2 b1 a1^-2 b1^-1, b1^-1 a1 b1 a1^-1 >'),
    'free_product-6': ('be09a8a93d065542ac937e31c76381bd85fe98ad4912a7b56f7673970c91efcf', 80, 5, '< a1, a2, a3, b1 | a1^2 b1 a1^-2 b1^-1, b1^-1 a1 b1 a1^-1 >'),
    'free_product-7': ('17d829105fc0c81b6ed0fc314ff38bfa31fc8306258fb56aeb7ab4abb684fac1', 144, 6, '< a1, a2, a3, b1 | a1^2 b1 a1^-2 b1^-1, b1^-1 a1 b1 a1^-1 >'),
}

EXPECTED_RANDOM = [
    ('ff25bb9d8782272c78a098f85458ea866b1130242d945f8f25ce8aab998938fe', 24, 2, '< a1, b1, b2 | a1 b1 a1^-1 b1^-1 a1 b1 a1^-1 b1^-1, b1^-1 a1 b1 a1^-1 >'),
    ('1b1210c8b98d41dbbe59bc517407819d3209ac384d32c864048abf87a1d9af45', 36, 3, '< a1, b2 | >'),
    ('ff578f455fba73de33deb563a3497525cbfc587c3bedfac77dc41c879e9d42e2', 48, 4, '< a1, b2 | >'),
    ('b121b97617b7a9baaf421659fe1df6a0998218d38bfb51ae4ee02023406c9fba', 60, 5, '< a1, b2 | >'),
    ('0bb2d713f17d91f2765bacdd41ca606389d50501557e74848ae1a526cc6d32f2', 120, 10, '< a1 | >'),
    ('ec6a82c51e2f69ef629697f522b96730ad4d443095493cc4e834c2ed9900179d', 240, 20, '< a1 | >'),
    ('c202b9cd942afe92677d2f2d8beb561d8ca6c7942dc6ab8a1c1515e914feb110', 480, 40, '< a1 | >'),
    ('bdb9662a97c20cfc75af81543eb388423b304a513a6eba6c3a608bd2d22b1715', 960, 80, '< | >'),
    ('5ebc9a28d1e47197ef40e8bc8312667be3c02b1a278bed10da5c0cc5c327e664', 1920, 160, '< | >'),
    ('cd4415d688960a5c7acacb50a773e0842da77ec68eae241154b308563594ee4c', 1932, 161, '< | >'),
]


@pytest.mark.parametrize("source,genus", [(s, g) for s in SOURCES for g in GENERA])
def test_realize_plan(source, genus):
    r = fib.realize_group(parse_presentation(SOURCES[source]), genus=genus)
    assert fingerprint(r.plan, r.quotient) == EXPECTED_REALIZE[f"{source}@{genus}"]


@pytest.mark.parametrize("spec", list(EXPECTED_ABELIAN), ids=str)
def test_abelian_plan(spec):
    assert fingerprint(*abelian_group_plan(*spec)) == EXPECTED_ABELIAN[spec]


@pytest.mark.parametrize("key", list(EXPECTED_FREE))
def test_free_plans(key):
    family, genus = key.split("-")
    plan = getattr(fib, f"{family}_plan")(int(genus))
    assert fingerprint(plan, fib.fundamental_group(plan)) == EXPECTED_FREE[key]


def test_random_twist_sequence():
    # twists about conjugated generators, each either one more base block
    # or a twisted copy of the whole plan
    rng = random.Random(2024)
    plan = fib.base_plan(4)
    got = []
    for _ in range(len(EXPECTED_RANDOM)):
        x, y = rng.sample(range(1, 9), 2)
        d = Word([(x, 1), (y, rng.choice([-1, 1])), (x, -1)])
        if rng.random() < 0.6:
            plan = fib.append_base_twist(plan, d)
        else:
            plan = fib.extend_by_twist(plan, d)
        got.append(fingerprint(plan, fib.fundamental_group(plan)))
    assert got == EXPECTED_RANDOM
