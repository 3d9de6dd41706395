import pytest

import goldenring as gr

_criterion_lines: list[tuple[int, str]] = []


def record_criterion(num: int, line: str) -> None:
    _criterion_lines.append((num, line))


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    # acceptance verdicts are emitted here so they survive output capture
    if _criterion_lines:
        terminalreporter.section("acceptance criteria")
        for _, line in sorted(_criterion_lines):
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def seeds3():
    return gr.find_seeds(3)


@pytest.fixture(scope="session")
def bound9_seed():
    """`seq --bound 9 --seed-index 7`: larger entries than any bound-3 seed,
    so WINDOW_BITS admits its window only up to K = 24 (2,044,932 bits)."""
    return gr.find_seeds(9, 8)[7]


@pytest.fixture(scope="session")
def largest_windows(seeds3, bound9_seed):
    """The largest window WINDOW_BITS admits of each bound-3 seed (K = 26)
    and of `bound9_seed` (K = 24), generated once."""
    return [gr.generate_system(s, K=26) for s in seeds3] + [gr.generate_system(bound9_seed, K=24)]


@pytest.fixture(scope="session")
def matrix(seeds3):
    return seeds3[0].M


@pytest.fixture(scope="session")
def distinct_matrices(seeds3):
    mats = []
    for s in seeds3:
        if all(s.M.entries() != m.entries() for m in mats):
            mats.append(s.M)
    return mats


@pytest.fixture(scope="session")
def first_system(seeds3):
    return gr.generate_system(seeds3[0], K=22)


@pytest.fixture(scope="session")
def full_width_xi():
    """The enclosure of xi at the full window precision: its proof rounded to
    multiples of 2**-s, 2**s >= 4 p_{K-1}**2.  From K = 13 on that is finer
    than `system.xi`, at K = 22 about 2**-45754 wide."""

    def enclose(system):
        return system.certificate.enclosure(2 * system.x(system.K - 1).x0.bit_length() + 2)

    return enclose


@pytest.fixture(scope="session")
def small_system(seeds3):
    # short window for exact polynomial/germ cross-checks: entries stay small
    return gr.generate_system(seeds3[0], K=12)
