import random

from xq.tensor import TensorElement


def test_outer_and_entries():
    t = TensorElement.outer((1, 2), (3, 4))
    assert t.coeffs == ((3, 4), (6, 8))
    assert list(t.entries()) == [(0, 0, 3), (0, 1, 4), (1, 0, 6), (1, 1, 8)]


def test_module_laws():
    rng = random.Random(0)
    for _ in range(200):
        n = rng.randint(1, 3)
        rand = lambda: TensorElement(n, tuple(
            tuple(rng.randint(-4, 4) for _ in range(n)) for _ in range(n)))
        s, t, u = rand(), rand(), rand()
        assert (s + t) + u == s + (t + u)
        assert s + t == t + s


def test_outer_is_bilinear():
    rng = random.Random(1)
    for _ in range(200):
        n = rng.randint(1, 3)
        v = lambda: tuple(rng.randint(-4, 4) for _ in range(n))
        a, b, c = v(), v(), v()
        ab = tuple(x + y for x, y in zip(a, b))
        assert TensorElement.outer(ab, c) == \
            TensorElement.outer(a, c) + TensorElement.outer(b, c)
        assert TensorElement.outer(c, ab) == \
            TensorElement.outer(c, a) + TensorElement.outer(c, b)


def test_induced_functorial():
    rng = random.Random(2)
    for _ in range(100):
        n = rng.randint(1, 3)
        m = rng.randint(1, 3)
        k = rng.randint(1, 3)
        f = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(m)]
        g = [[rng.randint(-2, 2) for _ in range(m)] for _ in range(k)]
        gf = [[sum(g[i][j] * f[j][l] for j in range(m)) for l in range(n)]
              for i in range(k)]
        t = TensorElement(n, tuple(tuple(rng.randint(-3, 3) for _ in range(n))
                                   for _ in range(n)))
        assert t.induced(f).induced(g) == t.induced(gf)
        # induced respects outer products: (f v) (x) (f w)
        v = tuple(rng.randint(-3, 3) for _ in range(n))
        w = tuple(rng.randint(-3, 3) for _ in range(n))
        fv = tuple(sum(f[i][j] * v[j] for j in range(n)) for i in range(m))
        fw = tuple(sum(f[i][j] * w[j] for j in range(n)) for i in range(m))
        assert TensorElement.outer(v, w).induced(f) == TensorElement.outer(fv, fw)


def test_projection_collapses_mixed_terms():
    # project Z^2 -> Z on the first coordinate; basis tensors involving the
    # second coordinate die
    p = [[1, 0]]
    assert TensorElement.basis(2, 0, 0).induced(p) == TensorElement.basis(1, 0, 0)
    for i, j in ((0, 1), (1, 0), (1, 1)):
        assert TensorElement.basis(2, i, j).induced(p) == TensorElement(1, ((0,),))
