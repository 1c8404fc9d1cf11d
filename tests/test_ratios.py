"""The twelve tabulated breakpoint ratios."""

from fractions import Fraction

import pytest

from bidisc.ratios import (_CACHE_SIZE, RATIO_TABLE, ratio, ratio_interval,
                           ratio_polynomial)

# 16-digit reference doubles, frozen from exact bisection of the minimal
# polynomials at 30 decimal digits
REFERENCE = {
    "r1": 0.6375559772319458,
    "ra": 0.619914404421775,
    "r2": 0.5451510421225727,
    "r3": 0.5332964166603129,
    "r4": 0.41421356237309503,
    "r5": 0.3861061048585385,
    "rb": 0.3691023861848554,
    "r6": 0.34919818620854987,
    "r7": 0.28077640640441515,
    "rc": 0.2168453354374751,
    "r8": 0.15470053837925152,
    "r9": 0.10102051443364381,
}

# repr of ratio_interval(name, tol) for each tol in PINNED_TOLS, recorded
# byte for byte
PINNED_TOLS = (1e-9, 1e-10, 1e-12, 1e-15)
PINNED_REPRS = {
    "r1": (
        "Interval(0.6375559763982892, 0.6375559773296118)",
        "Interval(0.6375559772131965, 0.6375559772714041)",
        "Interval(0.6375559772313864, 0.6375559772322958)",
        "Interval(0.637555977231945, 0.6375559772319459)",
    ),
    "ra": (
        "Interval(0.619914404116571, 0.6199144050478935)",
        "Interval(0.6199144044076093, 0.6199144044658169)",
        "Interval(0.6199144044212517, 0.6199144044221612)",
        "Interval(0.6199144044217748, 0.6199144044217757)",
    ),
    "r2": (
        "Interval(0.5451510418206453, 0.5451510427519679)",
        "Interval(0.5451510421116836, 0.5451510421698913)",
        "Interval(0.5451510421216881, 0.5451510421225976)",
        "Interval(0.5451510421225718, 0.5451510421225727)",
    ),
    "r3": (
        "Interval(0.5332964165136218, 0.5332964174449444)",
        "Interval(0.5332964166300371, 0.5332964166882448)",
        "Interval(0.5332964166600505, 0.53329641666096)",
        "Interval(0.5332964166603125, 0.5332964166603134)",
    ),
    "r4": (
        "Interval(0.4142135614529252, 0.4142135623842478)",
        "Interval(0.4142135623260401, 0.4142135623842478)",
        "Interval(0.41421356237242435, 0.41421356237333384)",
        "Interval(0.4142135623730949, 0.4142135623730958)",
    ),
    "r5": (
        "Interval(0.3861061045899987, 0.3861061055213213)",
        "Interval(0.38610610482282937, 0.386106104881037)",
        "Interval(0.38610610485829966, 0.38610610485920915)",
        "Interval(0.3861061048585377, 0.3861061048585386)",
    ),
    "rb": (
        "Interval(0.36910238582640886, 0.36910238675773144)",
        "Interval(0.36910238617565483, 0.3691023862338625)",
        "Interval(0.3691023861847498, 0.36910238618565927)",
        "Interval(0.3691023861848546, 0.36910238618485547)",
    ),
    "r6": (
        "Interval(0.34919818583875895, 0.3491981867700815)",
        "Interval(0.3491981861880049, 0.34919818624621257)",
        "Interval(0.3491981862080138, 0.3491981862089233)",
        "Interval(0.34919818620854937, 0.34919818620855025)",
    ),
    "r7": (
        "Interval(0.2807764057070017, 0.28077640663832426)",
        "Interval(0.28077640634728596, 0.2807764064054936)",
        "Interval(0.2807764064036746, 0.2807764064045841)",
        "Interval(0.2807764064044145, 0.28077640640441537)",
    ),
    "rc": (
        "Interval(0.21684533450752497, 0.21684533543884754)",
        "Interval(0.21684533538063988, 0.21684533543884754)",
        "Interval(0.21684533543702855, 0.21684533543793805)",
        "Interval(0.21684533543747442, 0.2168453354374753)",
    ),
    "r8": (
        "Interval(0.1547005381435156, 0.15470053907483816)",
        "Interval(0.15470053837634623, 0.1547005384345539)",
        "Interval(0.15470053837907471, 0.1547005383799842)",
        "Interval(0.15470053837925146, 0.15470053837925235)",
    ),
    "r9": (
        "Interval(0.1010205140337348, 0.10102051496505737)",
        "Interval(0.10102051438298076, 0.10102051444118842)",
        "Interval(0.10102051443300297, 0.10102051443391247)",
        "Interval(0.10102051443364335, 0.10102051443364424)",
    ),
}


def test_table_is_complete():
    assert set(RATIO_TABLE) == set(REFERENCE)


@pytest.mark.parametrize("name", sorted(REFERENCE))
def test_certified_value(name):
    iv = ratio_interval(name, tol=1e-12)
    assert iv.width <= 1e-12
    assert abs(iv.mid - REFERENCE[name]) < 1e-11
    assert abs(ratio(name) - REFERENCE[name]) < 1e-11


@pytest.mark.parametrize("name", sorted(REFERENCE))
def test_enclosure_brackets_a_sign_change(name):
    # checked here, not taken from ratio_interval: the minimal polynomial
    # changes sign across the certified enclosure (endpoints evaluated exactly)
    p = ratio_polynomial(name)
    iv = ratio_interval(name, tol=1e-12)
    if iv.lo == iv.hi:
        assert p.eval_exact(Fraction(iv.lo)) == 0
    else:
        assert (p.eval_exact(Fraction(iv.lo)) * p.eval_exact(Fraction(iv.hi))) < 0


@pytest.mark.parametrize("name", sorted(REFERENCE))
def test_enclosure_bytes_pinned(name):
    got = tuple(repr(ratio_interval(name, tol)) for tol in PINNED_TOLS)
    assert got == PINNED_REPRS[name]


@pytest.mark.parametrize("name", sorted(REFERENCE))
def test_stored_bracket_is_narrow_and_holds_reference(name):
    _, (lo, hi) = RATIO_TABLE[name]
    assert hi - lo <= 1e-9
    assert lo <= REFERENCE[name] <= hi


@pytest.fixture
def patched_table(monkeypatch):
    """Replace one table entry's bracket; the cache is cleared around it."""
    ratio_interval.cache_clear()

    def patch(name, bracket):
        coeffs, _ = RATIO_TABLE[name]
        monkeypatch.setitem(RATIO_TABLE, name, (coeffs, bracket))

    yield patch
    ratio_interval.cache_clear()


def test_bracket_without_sign_change_is_refused(patched_table):
    _, (lo, hi) = RATIO_TABLE["r4"]
    patched_table("r4", (lo + 1e-6, hi + 1e-6))
    with pytest.raises(ValueError, match="sign"):
        ratio_interval("r4")


def test_bracket_holding_three_roots_is_refused(patched_table):
    # r2's polynomial has roots near 0.121, 0.225 and 0.545: the end signs
    # differ, but the derivative's enclosure spans 0
    p = ratio_polynomial("r2")
    assert p.eval_exact(0.1) * p.eval_exact(0.6) < 0
    patched_table("r2", (0.1, 0.6))
    with pytest.raises(ValueError, match="derivative"):
        ratio_interval("r2")


def test_bracket_with_unbounded_derivative_sign_is_refused(patched_table):
    # (0, 1) holds only the ra root and the end signs differ, but the
    # derivative's enclosure there is about [-36, 4]
    p = ratio_polynomial("ra")
    assert p.eval_exact(0) * p.eval_exact(1) < 0
    patched_table("ra", (0.0, 1.0))
    with pytest.raises(ValueError, match="derivative"):
        ratio_interval("ra")


def test_cache_is_bounded():
    ratio_interval.cache_clear()
    for k in range(200):
        ratio_interval("r4", 1e-10 * (1 + k / 200))
    assert ratio_interval.cache_info().currsize == _CACHE_SIZE
    ratio_interval.cache_clear()


def test_cache_keys_on_value_not_call_form():
    ratio_interval.cache_clear()
    first = ratio_interval("r1")
    assert ratio_interval("r1", 1e-12) is first
    assert ratio_interval("r1", tol=1e-12) is first
    info = ratio_interval.cache_info()
    assert (info.misses, info.hits, info.currsize) == (1, 2, 1)
    ratio_interval.cache_clear()


def test_ordering_matches_subscripts():
    order = ["r1", "ra", "r2", "r3", "r4", "r5", "rb", "r6", "r7", "rc", "r8", "r9"]
    values = [ratio(n) for n in order]
    assert values == sorted(values, reverse=True)


def test_unknown_name():
    with pytest.raises(KeyError):
        ratio_polynomial("r99")
