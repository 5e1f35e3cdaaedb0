"""The curve that names every result, and the header- and digest-checked
text format of the caches keyed by it.

This is the part of the eigenform layer that a warm query reads: the model
and its conductor, the --curve and --n-max checks, and the cache reader.  It
loads neither the point counts and series of eigenform nor numpy, so a
command whose caches are warm compiles none of that.
"""
from __future__ import annotations

import importlib
import math
import os

from .exactmath import prime_powers, squarefree_factors


class CacheFormatError(ValueError):
    """A cache file failed header or body validation."""


class ConductorError(ValueError):
    """A model with no derivable squarefree conductor: additive, not minimal, or unfactored."""


class Frozen:
    """Base of the immutable records: __init__ sets each field once, through
    object.__setattr__, and nothing else may set or delete one."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class CurveSpec(Frozen):
    """Integral Weierstrass model [a1, a2, a3, a4, a6]; the model fixes the level q.
    Equal and hashed by its coefficients, so it keys a dict."""

    # count_points reads discriminant, c4 and c6 at every prime past
    # _BSGS_MIN_P: computed once per curve, here
    __slots__ = ("a1", "a2", "a3", "a4", "a6", "discriminant", "c4", "c6", "_q")

    def __init__(self, a1: int, a2: int, a3: int, a4: int, a6: int):
        for name, value in zip(self.__slots__, (a1, a2, a3, a4, a6)):
            object.__setattr__(self, name, value)
        b2, b4, b6 = self.b2, self.b4, self.b6
        b8 = a1 * a1 * a6 + 4 * a2 * a6 - a1 * a3 * a4 + a2 * a3 * a3 - a4 * a4
        object.__setattr__(self, "discriminant",
                           -b2 * b2 * b8 - 8 * b4 ** 3 - 27 * b6 * b6 + 9 * b2 * b4 * b6)
        object.__setattr__(self, "c4", b2 * b2 - 24 * b4)
        object.__setattr__(self, "c6", -b2 ** 3 + 36 * b2 * b4 - 216 * b6)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.coefficients == other.coefficients

    def __hash__(self):
        return hash(self.coefficients)

    @property
    def q(self) -> int:
        """The conductor: the product of the primes of the discriminant, on a
        minimal model with multiplicative reduction at each of them, which is
        one where none divides c4 too (Silverman, AEC VII.5.1)."""
        try:
            return self._q
        except AttributeError:
            pass
        name = format_curve(self)
        try:
            primes = prime_powers(abs(self.discriminant))
        except ValueError as exc:  # a singular model or an unresolved cofactor
            raise ConductorError(f"no conductor for curve {name}: {exc}") from None
        shared = [p for p in primes if self.c4 % p == 0]
        if shared:
            raise ConductorError(f"curve {name} is not a minimal model of squarefree conductor: "
                                 f"{shared[0]} divides its discriminant {self.discriminant} "
                                 f"and c4 = {self.c4}")
        object.__setattr__(self, "_q", math.prod(primes))
        return self._q

    @property
    def coefficients(self) -> tuple[int, int, int, int, int]:
        return (self.a1, self.a2, self.a3, self.a4, self.a6)

    @property
    def b2(self) -> int:
        return self.a1 * self.a1 + 4 * self.a2

    @property
    def b4(self) -> int:
        return 2 * self.a4 + self.a1 * self.a3

    @property
    def b6(self) -> int:
        return self.a3 * self.a3 + 4 * self.a6


def format_curve(curve: CurveSpec) -> str:
    return ",".join(str(a) for a in curve.coefficients)


def parse_curve(text: str) -> CurveSpec:
    parts = [int(p) for p in text.split(",")]
    if len(parts) != 5:
        raise ValueError("curve needs exactly five comma-separated integers")
    return CurveSpec(*parts)


def check_n_max(q: int, n_max: int) -> None:
    """Refuse an n_max below a prime p of q: a_p gives the involution sign there."""
    top = max(squarefree_factors(q))
    if n_max < top:
        raise ValueError(f"n_max {n_max} stops short of the prime {top} of the level {q}")


# ---------------------------------------------------------------------------
# One header-checked text format for every cache


def _sha256():
    """The sha256 constructor: CPython's builtin one (_sha2 from Python 3.12,
    _sha256 before), hashlib's only where neither is built.  hashlib would
    load OpenSSL's libcrypto and raise a command's peak RSS for the same digest."""
    for module in ("_sha2", "_sha256", "hashlib"):
        try:
            return importlib.import_module(module).sha256
        except ImportError:
            pass


def _header(magic: str, fields: dict) -> str:
    return " ".join([magic, *(f"{k}={v}" for k, v in fields.items())])


def write_cache(path: str, magic: str, fields: dict, body) -> None:
    """Write the header `magic k=v ... sha256=<hex>` and then the body lines,
    atomically; the digest is that of the body's bytes, every line ended by
    a newline.

    The text goes to a temp file beside path, which os.replace moves into
    place, so readers see the old file or the new one, never a partial write;
    the temp file is removed when the write fails.
    """
    text = "\n".join([*body, ""]).encode("ascii")
    header = _header(magic, {**fields, "sha256": _sha256()(text).hexdigest()})
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(header.encode("ascii") + b"\n" + text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def read_cache(path: str, magic: str, fields: dict, parse):
    """parse(body) for a write_cache file whose header is the one write_cache
    makes from magic and fields, and whose body has the sha256 the header
    gives; body is the file, in binary mode, at its first body line.  The
    identity and the integrity of the cache are checked on every read, before
    parse reads a line; the digest reads the body 8 KB at a time, so no copy of
    the whole body is held."""
    want = _header(magic, fields) + " sha256="
    with open(path, "rb") as fh:
        header = fh.readline().decode("ascii").rstrip("\n")
        if not header.startswith(want):
            raise CacheFormatError(f"cache header {header!r} does not start {want!r}")
        start, digest = fh.tell(), _sha256()()
        for chunk in iter(lambda: fh.read(1 << 13), b""):
            digest.update(chunk)
        if digest.hexdigest() != header[len(want):]:
            raise CacheFormatError(f"cache body does not have the sha256 {header[len(want):]!r} "
                                   "of its header")
        fh.seek(start)
        return parse(fh)


def read_usable(path: str, what: str, read, *identity):
    """read(path, *identity), or None when the cache is missing or, with a
    warning, unusable; the caller then builds the data and rewrites it."""
    if not os.path.exists(path):
        return None
    try:
        return read(path, *identity)
    except ValueError as exc:  # CacheFormatError and malformed body lines
        import logging  # only here: a run whose caches read cleanly never loads it
        logging.getLogger("modsym").warning(
            "%s cache %s is unusable (%s); rebuilding", what, path, exc)
        return None
