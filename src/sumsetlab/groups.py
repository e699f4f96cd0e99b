"""Exact arithmetic for four concrete torsion-free group backends.

Every element is identified by a canonical normal form (a small tuple of
integers), so equality and hashing are structural and all arithmetic is
exact. Python integers never overflow, which matters for the Heisenberg
backend whose third coordinate grows quadratically under powers.

Backends and their normal forms:

* ``zd:<d>``   lattice Z^d; key is a d-tuple of integers.
* ``free:<k>`` free group on the letters a, b, c, ...; key is a reduced
  word stored as a tuple of signed 1-based letter indices.
* ``klein``    Klein bottle group <u, v | u^-1 v u = v^-1>; every element
  is uniquely u^a v^b and the key is the pair (a, b).
* ``heis``     discrete Heisenberg group; key is a triple (x, y, z) with
  (x, y, z)(x', y', z') = (x+x', y+y', z+z'+x*y').
"""

from __future__ import annotations

import operator
import re
import sys
from itertools import groupby
from math import gcd
from typing import Optional

from .errors import DomainError, ParseError, ResourceLimitError, UsageError

DEFAULT_BALL_CAP = 12
BALL_ELEMENT_CAP = 1 << 20
LATTICE_DIM_CAP = 64
# letters of a parsed free word; a^(10^9) would ask for a billion-letter tuple
WORD_LENGTH_CAP = 1 << 20

_LETTERS = "abcdefghijklmnopqrstuvwxyz"
_WORD_TOKEN = re.compile(r"\S+")
_FACTOR = re.compile(r"([a-z])(?:\^(-?[0-9]+))?\Z")
_DECIMAL = re.compile(r"-?[0-9]+")


class GroupElement:
    """Immutable element of one backend, identified by its normal form.

    The constructor trusts its key, as the package computed it; backend.element checks a raw key.
    """

    __slots__ = ("backend", "key")

    def __init__(self, backend: "GroupBackend", key: tuple):
        self.backend = backend
        self.key = key

    def __mul__(self, other: "GroupElement") -> "GroupElement":
        if not isinstance(other, GroupElement):
            return NotImplemented
        if other.backend != self.backend:
            raise UsageError("cannot multiply elements of different backends")
        return GroupElement(self.backend, self.backend.mul_key(self.key, other.key))

    def __pow__(self, n: int) -> "GroupElement":
        if not _is_int(n):
            raise UsageError(f"an exponent must be an integer, got {n!r}")
        return GroupElement(self.backend, self.backend.pow_key(self.key, n))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, GroupElement)
            and self.backend == other.backend
            and self.key == other.key
        )

    def __hash__(self) -> int:
        return hash((self.backend.spec, self.key))

    def __lt__(self, other: "GroupElement") -> bool:
        if not isinstance(other, GroupElement) or other.backend != self.backend:
            raise UsageError("cannot order elements of different backends")
        return self.key < other.key

    def __str__(self) -> str:
        return self.backend.format_key(self.key)

    def __repr__(self) -> str:
        return f"<{self.backend.spec} {self}>"


class GroupBackend:
    """Normal-form arithmetic on raw element keys plus a wrapped element API.

    The ``*_key`` methods operate on plain tuples and are the hot path for
    set-level combinatorics; the wrapped methods validate inputs and return
    :class:`GroupElement` values.
    """

    spec: str = ""
    identity_key: tuple = ()

    def __init__(self):
        self._ball_cache: dict[int, tuple] = {}
        self._labels: dict[tuple, str] = {}

    # -- key-level arithmetic -------------------------------------------

    def mul_key(self, a: tuple, b: tuple) -> tuple:
        raise NotImplementedError

    def product_keys(self, A_keys, B_keys) -> set:
        """The set {a b : a in A_keys, b in B_keys}, one mul_key call per pair.

        setops.product_size and setops.product_set take this path where
        setops._grid declines: always on free:<k> and heis, whose kernels
        override it, and for sparse sets on zd:<d> and klein.
        """
        mul = self.mul_key
        return {mul(a, b) for a in A_keys for b in B_keys}

    def translation_parts(self, A_keys, B_keys) -> Optional[list[tuple]]:
        """AB as translates of a few sets: (part, shifts) pairs, or None.

        AB is the union over the pairs of {s + b : s in shifts, b in part},
        with + coordinatewise on integer vectors; a part may be empty.
        setops._grid counts AB on a bitmask from these. None where keys do
        not multiply this way, as on free:<k>, or where the parts would
        cost as much as the products, as on heis: (x, y, z) shears B by x
        before it translates, so each x in A needs its own copy of B.
        """
        return None

    def inv_key(self, a: tuple) -> tuple:
        raise NotImplementedError

    def pow_key(self, a: tuple, n: int) -> tuple:
        raise NotImplementedError

    def generator_keys(self) -> list[tuple]:
        raise NotImplementedError

    def primitive_root_key(self, a: tuple) -> tuple[tuple, int]:
        raise NotImplementedError

    def in_cyclic_key(self, g: tuple, h: tuple) -> Optional[int]:
        """Return the unique k with h^k == g, or None; h must not be the identity.

        This default holds for integer-tuple keys whose first coordinate
        where h is nonzero is, in h^k, k times h's: true on Z^d, Klein and
        Heisenberg. It reads the only possible k off that coordinate and
        returns it when the division is exact and pow_key(h, k) == g. A
        backend whose keys do not scale this way must override it.
        """
        i = 0
        while not h[i]:
            i += 1
        k, r = divmod(g[i], h[i])
        return k if not r and self.pow_key(h, k) == g else None

    # the integer-tuple normal form "(i1,...,id)" of arity len(identity_key);
    # the free backend overrides all three, Klein its parsing and formatting

    def parse_key(self, text: str, line: int | None = None) -> tuple:
        arity = len(self.identity_key)
        s = text.strip()
        if not (s.startswith("(") and s.endswith(")")):
            shape = ",".join(f"i{j + 1}" for j in range(arity))
            raise ParseError(f"{self.spec} element must look like ({shape})", line=line, column=1)
        parts = s[1:-1].split(",")
        if len(parts) != arity:
            raise ParseError(f"expected {arity} coordinates, got {len(parts)}", line=line, column=1)
        return tuple(_parse_int(part.strip(), what="integer coordinate", line=line, column=1) for part in parts)

    def format_key(self, key: tuple) -> str:
        return "(" + ",".join(map(_format_int, key)) + ")"

    def format_keys(self, keys) -> list[str]:
        """format_key of each key, remembered for the first BALL_ELEMENT_CAP keys seen.

        Threads that share the backend can at worst format one key twice.
        """
        labels = self._labels
        out = []
        for k in keys:
            label = labels.get(k)
            if label is None:
                label = self.format_key(k)
                if len(labels) < BALL_ELEMENT_CAP:
                    labels[k] = label
            out.append(label)
        return out

    def check_key(self, key: tuple) -> None:
        """Reject keys that are not normal forms of this backend."""
        arity = len(self.identity_key)
        if not (isinstance(key, tuple) and len(key) == arity and all(map(_is_int, key))):
            raise UsageError(f"{key!r} is not a {self.spec} normal form")

    def check_element(self, g: GroupElement) -> None:
        """Reject anything that is not an element of this backend."""
        if not isinstance(g, GroupElement) or g.backend != self:
            raise UsageError(f"element does not belong to backend {self.spec}")

    # -- wrapped element API --------------------------------------------

    @property
    def identity(self) -> GroupElement:
        return GroupElement(self, self.identity_key)

    @property
    def generators(self) -> list[GroupElement]:
        return [GroupElement(self, k) for k in self.generator_keys()]

    def element(self, key: tuple) -> GroupElement:
        """The element with this key; a key that is not a normal form is a UsageError."""
        self.check_key(key)
        return GroupElement(self, key)

    def parse(self, text: str) -> GroupElement:
        return GroupElement(self, self.parse_key(text))

    def primitive_root(self, g: GroupElement) -> tuple[GroupElement, int]:
        """Write g = root**exponent with the exponent maximal; g must not be 1."""
        self.check_element(g)
        if g.key == self.identity_key:
            raise DomainError("the identity has no primitive root")
        root, exponent = self.primitive_root_key(g.key)
        return GroupElement(self, root), exponent

    def in_cyclic(self, g: GroupElement, h: GroupElement) -> Optional[int]:
        """Return k with h**k == g if one exists, else None; h = 1 needs g = 1."""
        self.check_element(g)
        self.check_element(h)
        if h.key == self.identity_key:
            if g.key == self.identity_key:
                return 0
            raise DomainError("membership in <1> is only defined for the identity")
        return self.in_cyclic_key(g.key, h.key)

    def ball_keys(self, radius: int) -> tuple:
        """Sorted keys of all elements of word length <= radius, at most BALL_ELEMENT_CAP of them."""
        if radius < 0:
            raise DomainError("ball radius must be nonnegative")
        if radius > DEFAULT_BALL_CAP:
            raise ResourceLimitError(f"ball radius {radius} exceeds the cap {DEFAULT_BALL_CAP}")
        cached = self._ball_cache.get(radius)
        if cached is None:
            steps = []
            for k in self.generator_keys():
                steps.append(k)
                steps.append(self.inv_key(k))
            seen = {self.identity_key}
            frontier = [self.identity_key]
            for _ in range(radius):
                nxt = []
                for x in frontier:
                    for s in steps:
                        y = self.mul_key(x, s)
                        if y not in seen:
                            seen.add(y)
                            nxt.append(y)
                    if len(seen) > BALL_ELEMENT_CAP:
                        raise ResourceLimitError(f"the radius-{radius} ball passes {BALL_ELEMENT_CAP} elements")
                frontier = nxt
            cached = tuple(sorted(seen))
            self._ball_cache[radius] = cached
        return cached

    def ball(self, radius: int):
        """The word-metric ball of the given radius as a :class:`FiniteSubset`."""
        from .setops import FiniteSubset

        return FiniteSubset._from_keys(self, self.ball_keys(radius))

    # -- plumbing ---------------------------------------------------------

    def __eq__(self, other) -> bool:
        return isinstance(other, GroupBackend) and other.spec == self.spec

    def __hash__(self) -> int:
        return hash(self.spec)

    def __repr__(self) -> str:
        return f"<backend {self.spec}>"

    # shared word parsing for the free and Klein backends
    def _parse_word(self, text: str, letter_gens: dict[str, tuple], line: int | None,
                    max_letters: int | None = None) -> tuple:
        key = self.identity_key
        found = False
        for m in _WORD_TOKEN.finditer(text):
            tok, col = m.group(), m.start() + 1
            found = True
            if tok == "1":
                continue
            fm = _FACTOR.match(tok)
            if not fm:
                raise ParseError(f"bad factor {tok!r}", line=line, column=col)
            letter = fm.group(1)
            gen = letter_gens.get(letter)
            if gen is None:
                raise ParseError(f"generator {letter!r} not in group {self.spec}", line=line, column=col)
            exponent = _parse_int(fm.group(2), line=line, column=col) if fm.group(2) else 1
            # a letter's power has |exponent| letters, so it is refused before pow_key builds it
            if max_letters is not None and abs(exponent) > max_letters:
                raise ResourceLimitError(f"{tok} has more than {max_letters} letters")
            key = self.mul_key(key, self.pow_key(gen, exponent))
            if max_letters is not None and len(key) > max_letters:
                raise ResourceLimitError(f"the word grows past {max_letters} letters at {tok}")
        if not found:
            raise ParseError("empty element text", line=line, column=1)
        return key


class LatticeBackend(GroupBackend):
    """The lattice Z^d under componentwise addition."""

    def __init__(self, dim: int):
        if not 1 <= dim <= LATTICE_DIM_CAP:
            raise UsageError(f"lattice dimension must be between 1 and {LATTICE_DIM_CAP}")
        super().__init__()
        self.dim = dim
        self.spec = f"zd:{dim}"
        self.identity_key = (0,) * dim

    def mul_key(self, a, b):
        return tuple(map(operator.add, a, b))

    def translation_parts(self, A_keys, B_keys):
        # AB = BA, so the smaller set gives the shifts
        return [(B_keys, A_keys)] if len(A_keys) <= len(B_keys) else [(A_keys, B_keys)]

    def inv_key(self, a):
        return tuple(-x for x in a)

    def pow_key(self, a, n):
        return tuple(n * x for x in a)

    def generator_keys(self):
        keys = []
        for i in range(self.dim):
            keys.append(tuple(1 if j == i else 0 for j in range(self.dim)))
        return keys

    def primitive_root_key(self, a):
        e = 0
        for x in a:
            e = gcd(e, x)
        return tuple(x // e for x in a), e


class FreeBackend(GroupBackend):
    """The free group on k letters; keys are freely reduced words."""

    def __init__(self, rank: int):
        if not 1 <= rank <= 26:
            raise UsageError("free group rank must be between 1 and 26")
        super().__init__()
        self.rank = rank
        self.spec = f"free:{rank}"
        self.identity_key = ()
        self.letters = _LETTERS[:rank]
        self._letter_gens = {_LETTERS[i]: (i + 1,) for i in range(rank)}

    def mul_key(self, a, b):
        i, j = len(a), 0
        nb = len(b)
        while i > 0 and j < nb and a[i - 1] == -b[j]:
            i -= 1
            j += 1
        return a[:i] + b[j:]

    def product_keys(self, A_keys, B_keys):
        # a b is the concatenation a + b unless b starts with the inverse of a's
        # last letter; 0 is no letter, so the empty word a never cancels
        mul = self.mul_key
        tails = [(a, -a[-1] if a else 0) for a in A_keys]
        return {a + b if not b or b[0] != t else mul(a, b) for a, t in tails for b in B_keys}

    def inv_key(self, a):
        return tuple(-x for x in reversed(a))

    def generator_keys(self):
        return [(i + 1,) for i in range(self.rank)]

    def _cyclic_reduce(self, w: tuple) -> tuple[tuple, tuple]:
        """Split w = s * core * s^-1 with the core cyclically reduced."""
        i, j = 0, len(w)
        while j - i >= 2 and w[i] == -w[j - 1]:
            i += 1
            j -= 1
        return w[:i], w[i:j]

    def primitive_root_key(self, a):
        s, core = self._cyclic_reduce(a)
        n = len(core)
        for length in range(1, n + 1):
            if n % length:
                continue
            p = core[:length]
            if p * (n // length) == core:
                root = self.mul_key(self.mul_key(s, p), self.inv_key(s))
                return root, n // length
        raise AssertionError("unreachable: a word is always a power of itself")

    def pow_key(self, a, n):
        # a = s core s^-1 with the core cyclically reduced, so s core^n s^-1 is already reduced
        if not n:
            return ()
        s, core = self._cyclic_reduce(a)
        if n < 0:
            core, n = self.inv_key(core), -n
        return s + core * n + self.inv_key(s)

    def in_cyclic_key(self, g, h):
        # h^k = s core^k s^-1 has 2|s| + |k||core| letters, which leaves k = +-j for one j
        if not g:
            return 0
        s, core = self._cyclic_reduce(h)
        j, r = divmod(len(g) - 2 * len(s), len(core))
        return next((k for k in (j, -j) if not r and self.pow_key(h, k) == g), None)

    def parse_key(self, text, line=None):
        return self._parse_word(text, self._letter_gens, line, WORD_LENGTH_CAP)

    def check_key(self, key):
        ok = isinstance(key, tuple) and all(
            _is_int(x) and 1 <= abs(x) <= self.rank for x in key
        )
        if ok:
            ok = all(key[i] != -key[i + 1] for i in range(len(key) - 1))
        if not ok:
            raise UsageError(f"{key!r} is not a reduced {self.spec} word")

    def format_key(self, key):
        out = []
        for val, run in groupby(key):
            letter = self.letters[abs(val) - 1]
            count = len(list(run))
            exponent = count if val > 0 else -count
            out.append(letter if exponent == 1 else f"{letter}^{exponent}")
        return " ".join(out) if out else "1"


class KleinBackend(GroupBackend):
    """Klein bottle group <u, v | u^-1 v u = v^-1>; keys (a, b) mean u^a v^b.

    The defining relation gives v u = u v^-1, so pushing u-letters to the
    left yields the closed product law
    (u^a v^b)(u^c v^d) = u^(a+c) v^((-1)^c b + d).
    """

    def __init__(self):
        super().__init__()
        self.spec = "klein"
        self.identity_key = (0, 0)
        self._letter_gens = {"u": (1, 0), "v": (0, 1)}

    def mul_key(self, x, y):
        a, b = x
        c, d = y
        return (a + c, (b if c % 2 == 0 else -b) + d)

    def translation_parts(self, A_keys, B_keys):
        # (a, b) moves u^c v^d by (a, b) when c is even and by (a, -b) when c is odd
        even = [y for y in B_keys if not y[0] & 1]
        odd = [y for y in B_keys if y[0] & 1]
        return [(even, A_keys), (odd, [(a, -b) for a, b in A_keys])]

    def inv_key(self, x):
        a, b = x
        return (-a, -b if a % 2 == 0 else b)

    def pow_key(self, x, n):
        a, b = x
        if a % 2 == 0:
            return (n * a, n * b)
        return (n * a, b if n % 2 else 0)

    def generator_keys(self):
        return [(1, 0), (0, 1)]

    def primitive_root_key(self, x):
        a, b = x
        if a == 0:
            # pure v-power
            return (0, 1 if b > 0 else -1), abs(b)
        if a % 2:
            # odd u-exponent: (s, b)^|a| = (a, b) for s = sign(a), and any
            # root's u-exponent divides a, forcing this shape
            return (1 if a > 0 else -1, b), abs(a)
        if b == 0:
            # u^a with a even; (s, d)^|a| = (a, 0) for every d, pick d = 0
            return (1 if a > 0 else -1, 0), abs(a)
        # a even, b nonzero: roots must have even u-exponent, so e | a/2 and e | b
        e = gcd(abs(a) // 2, abs(b))
        return (a // e, b // e), e

    def parse_key(self, text, line=None):
        return self._parse_word(text, self._letter_gens, line)

    def format_key(self, key):
        a, b = key
        parts = []
        if a:
            parts.append("u" if a == 1 else "u^" + _format_int(a))
        if b:
            parts.append("v" if b == 1 else "v^" + _format_int(b))
        return " ".join(parts) if parts else "1"


class HeisenbergBackend(GroupBackend):
    """Discrete Heisenberg group on integer triples (x, y, z)."""

    def __init__(self):
        super().__init__()
        self.spec = "heis"
        self.identity_key = (0, 0, 0)

    def mul_key(self, p, q):
        x1, y1, z1 = p
        x2, y2, z2 = q
        return (x1 + x2, y1 + y2, z1 + z2 + x1 * y2)

    def product_keys(self, A_keys, B_keys):
        return {(x1 + x2, y1 + y2, z1 + z2 + x1 * y2) for x1, y1, z1 in A_keys for x2, y2, z2 in B_keys}

    def inv_key(self, p):
        x, y, z = p
        return (-x, -y, -z + x * y)

    def pow_key(self, p, n):
        x, y, z = p
        return (n * x, n * y, n * z + (n * (n - 1) // 2) * x * y)

    def generator_keys(self):
        return [(1, 0, 0), (0, 1, 0)]

    def primitive_root_key(self, key):
        """(root, e) with root^e == key and e maximal; key must not be the identity.

        (p, q, r)^e = (ep, eq, er + C(e,2)pq), so e divides t = gcd(x, y),
        and with p = x/e, q = y/e it must divide z - C(e,2)pq. Write e = o 2^a
        with o odd. C(e,2) is a multiple of o, so the odd part asks o | z:
        o may be any odd number dividing gcd(t, z). For a >= 1,
        C(e,2) is 2^(a-1) times an odd number, so modulo 2^a the condition
        is 2^a | z when pq is even, and v2(z) = a - 1 when pq is odd, which
        is exactly when v2(x) = v2(y) = a. With m = v2(t), every a < m needs
        only 2^a | z, and a = m passes only if every a < m does. So the valid
        exponents are the numbers dividing the largest one, the odd part of
        gcd(t, z) times 2^a for the largest valid a. Roots are unique, so
        this is the primitive root.
        """
        x, y, z = key
        if x == 0 and y == 0:
            return (0, 0, 1 if z > 0 else -1), abs(z)
        t = gcd(x, y)
        e = gcd(t, z)  # o 2^min(m, v2(z)), the answer unless pq can be odd at a = m
        low = t & -t  # 2^m
        if low > 1 and x & y & low:
            # v2(x) = v2(y) = m >= 1: a = m holds iff v2(z) = m - 1
            if e & -e == low:
                e //= 2
            elif e & -e == low >> 1:
                e *= 2
        px, py = x // e, y // e
        return (px, py, (z - (e * (e - 1) // 2) * px * py) // e), e


_BACKEND_CACHE: dict[str, GroupBackend] = {}


def backend_from_spec(spec: str) -> GroupBackend:
    """Resolve a backend spec string: zd:<d>, free:<k>, klein or heis."""
    if not isinstance(spec, str):
        raise UsageError(f"a group spec is a string, got {spec!r}")
    s = spec.strip().lower()
    backend = _BACKEND_CACHE.get(s)
    if backend is not None:
        return backend
    if s == "klein":
        backend = KleinBackend()
    elif s == "heis":
        backend = HeisenbergBackend()
    elif s.startswith("zd:"):
        backend = LatticeBackend(_parse_spec_int(spec, s[3:]))
    elif s.startswith("free:"):
        backend = FreeBackend(_parse_spec_int(spec, s[5:]))
    else:
        raise UsageError(f"unknown group spec {spec!r} (use zd:<d>, free:<k>, klein or heis)")
    _BACKEND_CACHE[s] = backend
    return backend


def _parse_spec_int(spec: str, tail: str) -> int:
    if not re.fullmatch(r"[0-9]+", tail):
        raise UsageError(f"bad numeric parameter in group spec {spec!r}")
    return _parse_int(tail, UsageError)


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _parse_int(text: str, error=ParseError, what: str = "integer", **where) -> int:
    """The value of an ASCII decimal -?[0-9]+, the grammar of set files and integer CLI flags.

    Other text raises error(f"bad {what} {text!r}", **where); so does a
    number past Python's digit limit, with a message naming the limit.
    """
    if not _DECIMAL.fullmatch(text):
        raise error(f"bad {what} {text!r}", **where)
    try:
        return int(text)
    except ValueError:
        raise error(_digit_limit(text), **where) from None


def _format_int(x: int) -> str:
    """str(x); past Python's digit limit it raises ResourceLimitError."""
    try:
        return str(x)
    except ValueError:
        limit = sys.get_int_max_str_digits()
        raise ResourceLimitError(f"cannot print an integer of more than {limit} digits") from None


def _digit_limit(text: str) -> str:
    return f"an integer of {len(text.lstrip('-'))} digits exceeds the limit of {sys.get_int_max_str_digits()}"
