"""Number literals as the statement grammar writes them, for the literal
property and the mutated-statement fuzz.

A literal is an optional minus and the tokenizer's number: digits with an
optional dot, and an optional exponent. The draws aim at the values that
have broken before: zeros of either sign, 29 or more digits (past the
default context's 28), exponents at the edges of the default context and
of the decimal module's range, and integers at the int conversion limit
and one digit past it.
"""

import decimal
import sys
from decimal import Decimal, InvalidOperation

from hypothesis import strategies as st

INT_DIGITS = sys.get_int_max_str_digits()

_context = decimal.getcontext()
EXPONENTS = (
    0, 1, 28, 29,
    _context.Emax, _context.Emax + 1, _context.Emin, _context.Emin - 1,
    decimal.MAX_EMAX - 1, decimal.MAX_EMAX, decimal.MAX_EMAX + 1,
    decimal.MIN_EMIN, decimal.MIN_EMIN - 1,
    decimal.MIN_ETINY, decimal.MIN_ETINY - 1,
)

digit_runs = st.one_of(
    st.text("0123456789", min_size=1, max_size=4),
    # a 1, then zeros, then one more digit: 29 to 42 digits
    st.builds(
        lambda zeros, last: "1" + "0" * zeros + last,
        st.integers(27, 40),
        st.sampled_from("0123456789"),
    ),
)


@st.composite
def _short_literals(draw):
    whole, fraction = draw(digit_runs), draw(digit_runs)
    text = draw(
        st.sampled_from((whole, whole + ".", f"{whole}.{fraction}", "." + fraction))
    )
    if draw(st.booleans()):
        exponent = draw(st.sampled_from(EXPONENTS))
        sign = "-" if exponent < 0 else draw(st.sampled_from(("", "+")))
        text += draw(st.sampled_from("eE")) + sign + str(abs(exponent))
    return draw(st.sampled_from(("", "-"))) + text


# integers of exactly the limit's digits, and one past it
_long_integers = st.sampled_from(
    [
        sign + digits
        for sign in ("", "-")
        for digits in (
            "9" * INT_DIGITS,
            "1" + "0" * (INT_DIGITS - 1),
            "1" * (INT_DIGITS + 1),
        )
    ]
)

number_literals = st.one_of(_short_literals(), _long_integers)


def literal_value(text: str):
    """The value Python gives a literal's text: `int` for digits alone,
    `Decimal` once a dot or an exponent appears; None where it refuses."""
    try:
        if any(c in text for c in ".eE"):
            return Decimal(text)
        return int(text)
    except (ValueError, InvalidOperation):
        return None


def same_value(got, expected) -> bool:
    """Equal, of the same type, and a Decimal with the same sign, digits
    and exponent, so `-0.0` is not `0.0` and `1.50` is not `1.5`."""
    if type(got) is not type(expected):
        return False
    if isinstance(got, Decimal):
        return got.as_tuple() == expected.as_tuple()
    return got == expected
