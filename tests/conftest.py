import numpy as np

ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


def random_hermitian(rng, n):
    m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return 0.5 * (m + m.conj().T)


def random_symmetric(rng, n):
    m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return 0.5 * (m + m.T)


def random_unit(rng, n):
    v = rng.normal(size=n) + 1j * rng.normal(size=n)
    return v / np.linalg.norm(v)


def bits(a):
    """The real and imaginary parts of a complex array as raw float64 bits."""
    return np.ascontiguousarray(a).view(np.float64).view(np.uint64)


def kron_rows():
    """2x3 rows with negative real and imaginary parts and -0.0 entries, the
    base rows of the two row families, and 200 seeded random rows."""
    signed = np.array([[-1.5 - 0.25j, complex(-0.0, 2.0), complex(3.0, -0.0)],
                       [complex(-0.0, -0.0), -2j, complex(-0.5, -0.0)]])
    bases = [np.array([[1, 0, 0], [0, 0, 1]], dtype=complex),
             np.array([[1, 0, 0], [0, 1, 0]], dtype=complex)]
    rng = np.random.default_rng(43)
    randoms = [rng.normal(size=(2, 3)) + 1j * rng.normal(size=(2, 3)) for _ in range(200)]
    return [signed, -signed] + bases + randoms
