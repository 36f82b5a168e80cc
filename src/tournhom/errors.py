"""Shared exception types, and a typed reader for the fields of JSON input."""


class BudgetExceededError(RuntimeError):
    """An exact search or enumeration exceeded its node/leaf budget."""


class EnumerationCapError(RuntimeError):
    """An enumeration produced more homomorphisms than the requested cap."""


class DegenerateHostError(ValueError):
    """The 4-necklace density vanishes, so the (x, y) statistics are undefined."""


class SamplingError(RuntimeError):
    """A randomized sampler exhausted its tries without a success."""


# -- typed fields of JSON input -------------------------------------------------

_KINDS = {  # a kind's name in the singular and the plural
    bool: ("true or false", "booleans"),
    int: ("an integer", "integers"),
    str: ("a string", "strings"),
    dict: ("an object", "objects"),
}


def json_field(doc, key: str, kind, owner: str):
    """doc[key], checked to be of `kind`, else a ValueError naming `owner` and the field.

    `kind` is bool, int, str or dict, a one-element list [kind] for a list
    of that kind, or a tuple of kinds.  A bool is never an int, and neither
    is a float.
    """
    if not isinstance(doc, dict):
        raise ValueError(f"{owner} must be an object")
    if key not in doc:
        raise ValueError(f"{owner} lacks the field {key!r}")
    if not _fits(doc[key], kind):
        raise ValueError(f"{owner}'s field {key!r} must be {_name(kind)}")
    return doc[key]


def _fits(value, kind) -> bool:
    if isinstance(kind, list):
        return isinstance(value, list) and all(_fits(v, kind[0]) for v in value)
    if isinstance(kind, tuple):
        return any(_fits(value, k) for k in kind)
    if isinstance(value, bool) or kind is bool:
        return isinstance(value, bool) and kind is bool
    return isinstance(value, kind)


def _name(kind, plural: bool = False) -> str:
    if isinstance(kind, list):
        return ("lists of " if plural else "a list of ") + _name(kind[0], plural=True)
    if isinstance(kind, tuple):
        return " or ".join(_name(k, plural) for k in kind)
    return _KINDS[kind][plural]
