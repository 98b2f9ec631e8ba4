import pytest

from fdq.cfd import PatternTableau, cfd_support, tableau_match_rows
from fdq.errors import ContractError, KindMismatchError, NameResolutionError

# a bad cell is a user error, raised before any row is read
BAD_CELLS = {
    "text-constant-ordered": (
        lambda iowa: tableau_match_rows(
            iowa, PatternTableau(("Pack",), ((("<", "abc"),),))
        ),
        KindMismatchError,
    ),
    "text-constant-equal": (
        lambda iowa: cfd_support(
            iowa, ["Pack"], "BtlVol", {"Pack": ("=", "abc"), "BtlVol": None}
        ),
        KindMismatchError,
    ),
    "unknown-operator": (
        lambda iowa: cfd_support(
            iowa, ["Pack"], "BtlVol", {"Pack": ("~", 12), "BtlVol": None}
        ),
        KindMismatchError,
    ),
    "unknown-attribute-wildcard": (
        lambda iowa: cfd_support(
            iowa, ["Nope"], "BtlVol", {"Nope": None, "BtlVol": None}
        ),
        NameResolutionError,
    ),
    "cell-not-a-pair": (
        lambda iowa: tableau_match_rows(iowa, PatternTableau(("Pack",), ((("=",),),))),
        ContractError,
    ),
}


@pytest.mark.parametrize("call, error", BAD_CELLS.values(), ids=BAD_CELLS.keys())
def test_bad_cells_are_user_errors(iowa, call, error):
    with pytest.raises(error):
        call(iowa)
