"""Builtin group specifications, each held as spec JSON, exactly as a
``--spec`` file holds it, and read by ``groups.spec_from_json_dict``.

``peyre6`` is the order-3^12 headline example: U and V of dimension 6 over
F_3 with (-v1 and -v2 are the coefficient 2 in JSON)

    gamma(u1^u2) = v1    gamma(u4^u5) = -v1
    gamma(u2^u3) = v2    gamma(u5^u6) = -v2
    gamma(u1^u4) = v3    gamma(u2^u5) = v4
    gamma(u3^u6) = v5    gamma(u4^u6) = v6

It is embedded source-level (not as a data file) because it anchors the
repository's main regression: trivial unramified Brauer group together with
a nonzero degree-3 obstruction.
"""

from __future__ import annotations

from .errors import SpecError
from .groups import GroupSpec, spec_from_json_dict

# name -> (spec JSON, note)
BUILTINS = {
    "peyre6": ({"p": 3, "dimU": 6, "dimV": 6, "gamma": [
        {"i": 1, "j": 2, "v": [1, 0, 0, 0, 0, 0]},
        {"i": 4, "j": 5, "v": [2, 0, 0, 0, 0, 0]},
        {"i": 2, "j": 3, "v": [0, 1, 0, 0, 0, 0]},
        {"i": 5, "j": 6, "v": [0, 2, 0, 0, 0, 0]},
        {"i": 1, "j": 4, "v": [0, 0, 1, 0, 0, 0]},
        {"i": 2, "j": 5, "v": [0, 0, 0, 1, 0, 0]},
        {"i": 3, "j": 6, "v": [0, 0, 0, 0, 1, 0]},
        {"i": 4, "j": 6, "v": [0, 0, 0, 0, 0, 1]}]},
        "p=3, dim U = dim V = 6; see module docstring for gamma"),
    "heisenberg3": ({"p": 3, "dimU": 2, "dimV": 1,
                     "gamma": [{"i": 1, "j": 2, "v": [1]}]},
                    "p=3, n=2, m=1, gamma(u1^u2) = v1 (order 27, exponent 3)"),
    "heisenberg5": ({"p": 5, "dimU": 2, "dimV": 1,
                     "gamma": [{"i": 1, "j": 2, "v": [1]}]},
                    "p=5, n=2, m=1, gamma(u1^u2) = v1 (order 125, exponent 5)"),
    "elem3": ({"p": 3, "dimU": 1, "dimV": 0}, "Z/3 (n=1, m=0, gamma = 0)"),
    "elem9": ({"p": 3, "dimU": 2, "dimV": 0}, "(Z/3)^2 (n=2, m=0, gamma = 0)"),
    "elem27": ({"p": 3, "dimU": 3, "dimV": 0}, "(Z/3)^3 (n=3, m=0, gamma = 0)"),
    "elem25": ({"p": 5, "dimU": 2, "dimV": 0}, "(Z/5)^2 (n=2, m=0, gamma = 0)"),
}


def elementary(p: int, n: int, name: str) -> GroupSpec:
    """(Z/p)^n as an extension with V = 0."""
    return spec_from_json_dict({"p": p, "dimU": n, "dimV": 0}, name=name)


def builtin(name: str) -> GroupSpec:
    if name not in BUILTINS:
        raise SpecError(
            f"unknown builtin {name!r}; known: {', '.join(sorted(BUILTINS))}")
    return spec_from_json_dict(BUILTINS[name][0], name=name)
