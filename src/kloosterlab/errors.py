"""Exception types shared across the package."""


class KloosterlabError(Exception):
    """Base class for package-specific failures."""


class CapacityError(KloosterlabError):
    """A requested computation exceeds a configured size or memory budget."""


class NotInvertibleError(KloosterlabError, ValueError):
    """Modular inverse requested for a residue that is not a unit."""

    def __init__(self, n: int, q: int, gcd: int):
        super().__init__(f"{n} is not invertible modulo {q} (gcd = {gcd})")
        self.n = n
        self.q = q
        self.gcd = gcd


class ConsistencyError(KloosterlabError):
    """Two supposedly equivalent computations disagreed."""
