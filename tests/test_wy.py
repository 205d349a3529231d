"""Unit tests for the compact WY representation (larft / larfb)."""

import numpy as np
import pytest

from repro.errors import ShapeError
from repro.linalg.householder import full_vector, larfg, reflector_matrix
from repro.linalg.wy import block_reflector, larfb, larft


def _reflector_set(rng, m, k):
    """Generate k consistent Householder vectors of length m (forward,
    columnwise storage: unit at row i of column i, zeros above)."""
    v = np.zeros((m, k), order="F")
    taus = np.zeros(k)
    for i in range(k):
        refl = larfg(1.0 + rng.standard_normal(), rng.standard_normal(m - i - 1))
        v[i, i] = 1.0
        v[i + 1 :, i] = refl.v
        taus[i] = refl.tau
    return v, taus


def _explicit_product(v, taus):
    m, k = v.shape
    u = np.eye(m)
    for i in range(k):
        u = u @ reflector_matrix(taus[i], v[:, i])
    return u


class TestLarft:
    def test_matches_explicit_product(self, rng):
        v, taus = _reflector_set(rng, 8, 3)
        t = larft(v, taus)
        np.testing.assert_allclose(block_reflector(v, t), _explicit_product(v, taus), atol=1e-13)

    def test_t_is_upper_triangular(self, rng):
        v, taus = _reflector_set(rng, 10, 4)
        t = larft(v, taus)
        np.testing.assert_array_equal(np.tril(t, -1), 0.0)

    def test_diagonal_is_taus(self, rng):
        v, taus = _reflector_set(rng, 10, 4)
        t = larft(v, taus)
        np.testing.assert_allclose(np.diag(t), taus)

    def test_zero_tau_column(self, rng):
        v, taus = _reflector_set(rng, 6, 2)
        taus[1] = 0.0
        t = larft(v, taus)
        assert np.all(t[:, 1] == 0.0)

    def test_shape_mismatch(self, rng):
        v, taus = _reflector_set(rng, 6, 2)
        with pytest.raises(ShapeError):
            larft(v, taus[:1])

    def test_orthogonality_of_block(self, rng):
        v, taus = _reflector_set(rng, 12, 5)
        t = larft(v, taus)
        u = block_reflector(v, t)
        np.testing.assert_allclose(u @ u.T, np.eye(12), atol=1e-13)


class TestLarfb:
    @pytest.mark.parametrize("side", ["left", "right"])
    @pytest.mark.parametrize("trans", [False, True])
    def test_matches_explicit(self, rng, side, trans):
        v, taus = _reflector_set(rng, 9, 3)
        t = larft(v, taus)
        u = block_reflector(v, t)
        op = u.T if trans else u
        if side == "left":
            c = np.asfortranarray(rng.standard_normal((9, 5)))
            ref = op @ c
        else:
            c = np.asfortranarray(rng.standard_normal((5, 9)))
            ref = c @ op
        larfb(v, t, c, side=side, trans=trans)
        np.testing.assert_allclose(c, ref, atol=1e-13)

    def test_left_then_reverse_restores(self, rng):
        # the reverse-computation identity: U (Uᵀ C) = C
        v, taus = _reflector_set(rng, 9, 3)
        t = larft(v, taus)
        c = np.asfortranarray(rng.standard_normal((9, 4)))
        ref = c.copy()
        larfb(v, t, c, side="left", trans=True)
        larfb(v, t, c, side="left", trans=False)
        np.testing.assert_allclose(c, ref, atol=1e-12)

    def test_right_then_reverse_restores(self, rng):
        v, taus = _reflector_set(rng, 9, 3)
        t = larft(v, taus)
        c = np.asfortranarray(rng.standard_normal((4, 9)))
        ref = c.copy()
        larfb(v, t, c, side="right", trans=False)
        larfb(v, t, c, side="right", trans=True)
        np.testing.assert_allclose(c, ref, atol=1e-12)

    def test_shape_checks(self, rng):
        v, taus = _reflector_set(rng, 6, 2)
        t = larft(v, taus)
        with pytest.raises(ShapeError):
            larfb(v, t, np.zeros((5, 3), order="F"), side="left")
        with pytest.raises(ShapeError):
            larfb(v, t, np.zeros((3, 6), order="F"), side="up")

    def test_extended_v_updates_checksum_row(self, rng):
        # The FT trick: appending eᵀV to V makes the RIGHT update carry the
        # row-checksum column along consistently.
        m, k = 8, 3
        v, taus = _reflector_set(rng, m, k)
        t = larft(v, taus)
        a = np.asfortranarray(rng.standard_normal((5, m)))
        chk = a @ np.ones(m)  # row checksums
        ext = np.hstack([a, chk[:, None]])
        vce = np.vstack([v, np.ones(m) @ v])
        # emulate right update on extended columns: ext -= (A V) T Vceᵀ
        w = (a @ v) @ t
        ext -= w @ vce.T
        a2 = ext[:, :m]
        np.testing.assert_allclose(ext[:, m], a2 @ np.ones(m), atol=1e-12)


class TestStacked:
    """A (B, m, k) stack runs every item through the 2-D call's BLAS
    calls, so each item's bytes equal the 2-D call's on that item."""

    def _stack(self, rng, b, m, k):
        from repro.batch.stack import fstack

        v, taus = fstack(b, m, k), np.zeros((b, k))
        for i in range(b):
            v[i], taus[i] = _reflector_set(rng, m, k)
        taus[1, [0, 2]] = 0.0  # zero taus inside a block...
        taus[2] = 0.0          # ...and an item with none live
        return v, taus

    def test_larft_matches_each_item_bytewise(self, rng):
        v, taus = self._stack(rng, 4, 11, 5)
        t = larft(v, taus)
        for i in range(4):
            assert np.array_equal(t[i], larft(v[i], taus[i]))
        assert not t[2].any()

    @pytest.mark.parametrize("side", ["left", "right"])
    @pytest.mark.parametrize("trans", [False, True])
    def test_larfb_matches_each_item_bytewise(self, rng, side, trans):
        from repro.batch.stack import fstack

        v, taus = self._stack(rng, 4, 11, 5)
        t = larft(v, taus)
        c = fstack(4, *((11, 6) if side == "left" else (6, 11)))
        c[...] = rng.standard_normal(c.shape)
        ref = [larfb(v[i], t[i], c[i].copy(order="F"), side=side, trans=trans)
               for i in range(4)]
        larfb(v, t, c, side=side, trans=trans)
        for i in range(4):
            assert np.array_equal(c[i], ref[i])
