"""Modular arithmetic utilities for the FHE substrate.

This module provides the number-theoretic primitives that every other part of
the FHE layer builds on:

* fast deterministic primality testing (Miller-Rabin with fixed witnesses,
  exact for the 64-bit range used by RNS moduli),
* generation of *NTT-friendly* primes, i.e. primes ``p`` with
  ``p = 1 (mod 2N)`` so that the negacyclic NTT of length ``N`` exists,
* primitive roots and 2N-th roots of unity,
* small helpers (``mod_inverse``, ``mod_pow``, centred reduction) used by the
  RNS, CKKS, and TFHE code.

The functions operate on plain Python integers, which are arbitrary
precision and therefore safe for the 36-60 bit moduli used by the paper's
parameter sets.  Whole coefficient vectors are the arithmetic backend's job
(:mod:`repro.fhe.backend`); this module imports nothing from the package.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterator, List

__all__ = [
    "is_prime",
    "next_prime",
    "previous_prime",
    "find_ntt_prime",
    "find_ntt_primes",
    "mod_pow",
    "mod_inverse",
    "primitive_root",
    "find_primitive_root_of_unity",
    "find_2nth_root_of_unity",
    "centered",
    "bit_length_of",
]

# Witnesses that make Miller-Rabin deterministic for all n < 3.3 * 10^24,
# which comfortably covers every modulus used in this repository.
_MILLER_RABIN_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

_SMALL_PRIMES = (
    2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67,
    71, 73, 79, 83, 89, 97,
)


def is_prime(n: int) -> bool:
    """Return True iff ``n`` is prime.

    Deterministic for every integer below 3.3e24 (Miller-Rabin with the fixed
    witness set), which is far beyond the 36-60 bit RNS moduli used here.
    """
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n == p:
            return True
        if n % p == 0:
            return False
    # Write n - 1 = d * 2^r with d odd.
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MILLER_RABIN_WITNESSES:
        if a % n == 0:
            continue
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = (x * x) % n
            if x == n - 1:
                break
        else:
            return False
    return True


def next_prime(n: int) -> int:
    """Return the smallest prime strictly greater than ``n``."""
    candidate = n + 1
    if candidate <= 2:
        return 2
    if candidate % 2 == 0:
        candidate += 1
    while not is_prime(candidate):
        candidate += 2
    return candidate


def previous_prime(n: int) -> int:
    """Return the largest prime strictly smaller than ``n``."""
    if n <= 2:
        raise ValueError("there is no prime smaller than 2")
    candidate = n - 1
    if candidate == 2:
        return 2
    if candidate % 2 == 0:
        candidate -= 1
    while candidate > 2 and not is_prime(candidate):
        candidate -= 2
    if candidate < 2:
        raise ValueError(f"no prime below {n}")
    return candidate


def find_ntt_prime(bit_length: int, ring_degree: int, *, index: int = 0) -> int:
    """Find the ``index``-th NTT-friendly prime of roughly ``bit_length`` bits.

    The returned prime ``p`` satisfies ``p = 1 (mod 2 * ring_degree)`` so a
    primitive 2N-th root of unity exists and the negacyclic NTT of length
    ``ring_degree`` is defined modulo ``p``.  Successive ``index`` values
    return successively smaller primes, which is how an RNS modulus chain is
    assembled.
    """
    if ring_degree <= 0 or ring_degree & (ring_degree - 1):
        raise ValueError("ring_degree must be a power of two")
    if bit_length < 4:
        raise ValueError("bit_length must be at least 4")
    modulus_step = 2 * ring_degree
    # Start just below 2^bit_length at a value congruent to 1 mod 2N.
    candidate = (1 << bit_length) + 1
    candidate -= (candidate - 1) % modulus_step
    found = -1
    while candidate > modulus_step:
        if candidate.bit_length() <= bit_length and is_prime(candidate):
            found += 1
            if found == index:
                return candidate
        candidate -= modulus_step
    raise ValueError(
        f"no NTT-friendly prime of {bit_length} bits for N={ring_degree}, index={index}"
    )


def find_ntt_primes(bit_length: int, ring_degree: int, count: int) -> List[int]:
    """Return ``count`` distinct NTT-friendly primes of about ``bit_length`` bits."""
    return [find_ntt_prime(bit_length, ring_degree, index=i) for i in range(count)]


def mod_pow(base: int, exponent: int, modulus: int) -> int:
    """Modular exponentiation (thin wrapper over :func:`pow` for readability)."""
    return pow(base, exponent, modulus)


def mod_inverse(value: int, modulus: int) -> int:
    """Return the multiplicative inverse of ``value`` modulo ``modulus``.

    Raises ``ValueError`` when the inverse does not exist.
    """
    value %= modulus
    if value == 0:
        raise ValueError("0 has no multiplicative inverse")
    g, x, _ = _extended_gcd(value, modulus)
    if g != 1:
        raise ValueError(f"{value} is not invertible modulo {modulus}")
    return x % modulus


def _extended_gcd(a: int, b: int) -> tuple[int, int, int]:
    """Return ``(g, x, y)`` with ``a*x + b*y = g = gcd(a, b)``."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    return old_r, old_s, old_t


def _prime_factors(n: int) -> Iterator[int]:
    """Yield the distinct prime factors of ``n`` (trial division + recursion)."""
    seen = set()
    d = 2
    while d * d <= n:
        if n % d == 0:
            if d not in seen:
                seen.add(d)
                yield d
            while n % d == 0:
                n //= d
        d += 1 if d == 2 else 2
    if n > 1 and n not in seen:
        yield n


@lru_cache(maxsize=None)
def primitive_root(prime: int) -> int:
    """Return a generator of the multiplicative group modulo ``prime``."""
    if not is_prime(prime):
        raise ValueError(f"{prime} is not prime")
    if prime == 2:
        return 1
    order = prime - 1
    factors = list(_prime_factors(order))
    for candidate in range(2, prime):
        if all(pow(candidate, order // f, prime) != 1 for f in factors):
            return candidate
    raise ValueError(f"no primitive root found for {prime}")  # pragma: no cover


def find_primitive_root_of_unity(order: int, modulus: int) -> int:
    """Return a primitive ``order``-th root of unity modulo the prime ``modulus``."""
    if (modulus - 1) % order != 0:
        raise ValueError(f"{order} does not divide {modulus} - 1; no such root exists")
    generator = primitive_root(modulus)
    root = pow(generator, (modulus - 1) // order, modulus)
    # The construction guarantees root^order == 1; verify primitivity.
    if order % 2 == 0 and pow(root, order // 2, modulus) == 1:
        raise ValueError(f"failed to construct a primitive {order}-th root mod {modulus}")
    return root


def find_2nth_root_of_unity(ring_degree: int, modulus: int) -> int:
    """Return a primitive 2N-th root of unity (``psi``) for the negacyclic NTT."""
    return find_primitive_root_of_unity(2 * ring_degree, modulus)


def centered(value: int, modulus: int) -> int:
    """Map ``value`` into the centred interval ``(-modulus/2, modulus/2]``."""
    value %= modulus
    if value > modulus // 2:
        value -= modulus
    return value


def bit_length_of(modulus: int) -> int:
    """Bit length of a modulus (convenience used by the hardware model)."""
    return int(modulus).bit_length()

