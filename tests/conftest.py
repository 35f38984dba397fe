import pytest

from kloosterlab.arith import build_multiplicative_tables


@pytest.fixture(scope="session")
def tables():
    # one sieve for the whole run; big enough for every dyadic window used here
    return build_multiplicative_tables(50000)


@pytest.fixture(scope="session")
def prime_table(tables):
    return tables.prime_table
