"""Shared pytest wiring (an always-visible acceptance report section) and
the field samples and bitwise comparison the assembly guard tests share."""

import numpy as np

_ac_lines = []


def record_line(line: str) -> None:
    """Queue a line for the end-of-run acceptance summary."""
    _ac_lines.append(line)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if _ac_lines:
        terminalreporter.section("acceptance criteria")
        for line in _ac_lines:
            terminalreporter.write_line(line)


FIELD_KINDS = ("random", "zero", "negative", "tiny", "large", "underflow")


def sample_field(kind: str, rng: np.random.Generator, n: int) -> np.ndarray:
    """A coefficient vector of one kind; "underflow" makes every product a signed zero."""
    return {
        "random": lambda: rng.standard_normal(n),
        "zero": lambda: np.zeros(n),
        "negative": lambda: -rng.uniform(0.1, 2.0, n),
        "tiny": lambda: 1e-300 * rng.standard_normal(n),
        "large": lambda: 1e200 * rng.standard_normal(n),
        "underflow": lambda: np.full(n, -5e-324),
    }[kind]()


def assert_bitwise_equal(a, b) -> None:
    """Same sparse format, shape, indptr, indices and data bits."""
    assert a.format == b.format and a.shape == b.shape
    np.testing.assert_array_equal(a.indptr, b.indptr)
    np.testing.assert_array_equal(a.indices, b.indices)
    np.testing.assert_array_equal(a.data.view(np.int64), b.data.view(np.int64))
