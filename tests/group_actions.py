"""Group actions on instances, test-side only.

The package never needs to act on points, but the equivariance suite
does: control transforms by (A, B) -> (g A g^-1, g B), the DAG data
matrix by Y -> Y g for block-diagonal g = (h, t), and thin quiver values
by the vertex scalars.  Integer unimodular elements keep everything
exact; for GL_1 factors and the torus that means signs.
"""

from git_topo.families.control import ControlInstance
from git_topo.families.dag import DagInstance
from git_topo.families.quiver import ThinQuiverRep
from git_topo.linalg import ComplexRational, Matrix
from git_topo.rng import CounterRng


def matmul(a: Matrix, b: Matrix) -> Matrix:
    """The exact product a b."""
    assert a.cols == b.rows, "inner dimensions differ"
    return Matrix(
        a.rows,
        b.cols,
        tuple(
            sum(x * y for x, y in zip(a.row(i), b.col(j)))
            for i in range(a.rows)
            for j in range(b.cols)
        ),
    )


def act_control(inst: ControlInstance, g: Matrix, g_inv: Matrix) -> ControlInstance:
    return ControlInstance(
        inst.n, inst.m, matmul(matmul(g, inst.a), g_inv), matmul(g, inst.b)
    )


def act_dag(inst: DagInstance, h: Matrix, torus_sign: int) -> DagInstance:
    mixed = matmul(inst.parent_block(), h)
    child = inst.y.col(inst.k)
    rows = [
        list(mixed.row(i)) + [torus_sign * child[i]] for i in range(inst.n)
    ]
    return DagInstance(inst.n, inst.k, Matrix.from_rows(rows))


def act_quiver(rep: ThinQuiverRep, vertex_signs) -> ThinQuiverRep:
    # value on s -> t maps to t_target * value * t_source^-1; signs are
    # their own inverses
    values = []
    for (s, t), v in zip(rep.spec.arrows, rep.values):
        sign = vertex_signs[t] * vertex_signs[s]
        values.append(ComplexRational(v.re * sign, v.im * sign))
    return ThinQuiverRep(rep.spec, tuple(values))


def random_signs(rng: CounterRng, count: int) -> tuple[int, ...]:
    return tuple(1 if rng.int_between(0, 1) else -1 for _ in range(count))


def _nonzero_int_between(rng: CounterRng, lo: int, hi: int) -> int:
    while True:
        value = rng.int_between(lo, hi)
        if value != 0:
            return value


def unimodular_from_stream(rng: CounterRng, n: int) -> tuple[Matrix, Matrix]:
    """Draw (g, g_inverse), a random integer matrix with determinant +-1.

    Built from 2n + 2 elementary shears, swaps and sign flips so the
    inverse can be maintained exactly alongside; entries stay small.
    """
    g = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    ginv = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(2 * n + 2):
        kind = rng.int_between(0, 2) if n > 1 else 2
        if kind == 0:
            i = rng.int_between(0, n - 1)
            j = rng.int_between(0, n - 2)
            if j >= i:
                j += 1
            c = _nonzero_int_between(rng, -2, 2)
            # g <- E g with E = I + c e_ij; g^-1 <- g^-1 E^-1.
            for col in range(n):
                g[i][col] += c * g[j][col]
            for row in range(n):
                ginv[row][j] -= c * ginv[row][i]
        elif kind == 1:
            i = rng.int_between(0, n - 1)
            j = rng.int_between(0, n - 2)
            if j >= i:
                j += 1
            g[i], g[j] = g[j], g[i]
            for row in range(n):
                ginv[row][i], ginv[row][j] = ginv[row][j], ginv[row][i]
        else:
            i = rng.int_between(0, n - 1)
            for col in range(n):
                g[i][col] = -g[i][col]
            for row in range(n):
                ginv[row][i] = -ginv[row][i]
    return Matrix.from_rows(g), Matrix.from_rows(ginv)
