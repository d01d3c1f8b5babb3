//! Fixed-size complex matrix inversion for MMSE combining.
//!
//! Combiner-weight computation needs, per subcarrier, the inverse of an
//! `L×L` Gram matrix with `L ≤ 4` layers. Gauss–Jordan elimination with
//! partial pivoting on a stack array is exact enough at these sizes,
//! keeps the crate dependency-free, and — with the size a const generic —
//! compiles to straight-line code with no heap traffic.

use lte_dsp::Complex32;

/// A square row-major complex matrix on the stack.
pub(crate) type Square<const N: usize> = [[Complex32; N]; N];

/// Inverse via Gauss–Jordan elimination with partial pivoting.
///
/// Returns `None` if the matrix is numerically singular (a pivot's power
/// below `1e-20`).
#[allow(clippy::needless_range_loop)] // (row, column) index notation throughout
pub(crate) fn inverse<const N: usize>(mut a: Square<N>) -> Option<Square<N>> {
    let mut inv = [[Complex32::ZERO; N]; N];
    for (i, row) in inv.iter_mut().enumerate() {
        row[i] = Complex32::ONE;
    }
    for col in 0..N {
        // Partial pivot: largest magnitude in this column.
        let mut pivot = col;
        let mut best = a[col][col].norm_sqr();
        for r in col + 1..N {
            let mag = a[r][col].norm_sqr();
            if mag > best {
                best = mag;
                pivot = r;
            }
        }
        if best < 1e-20 {
            return None;
        }
        a.swap(pivot, col);
        inv.swap(pivot, col);
        let scale = a[col][col].inv();
        for c in 0..N {
            a[col][c] *= scale;
            inv[col][c] *= scale;
        }
        for r in 0..N {
            if r == col {
                continue;
            }
            let factor = a[r][col];
            if factor == Complex32::ZERO {
                continue;
            }
            for c in 0..N {
                let (ac, ic) = (a[col][c], inv[col][c]);
                a[r][c] -= factor * ac;
                inv[r][c] -= factor * ic;
            }
        }
    }
    Some(inv)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lte_dsp::Xoshiro256;

    fn random_matrix<const N: usize>(seed: u64) -> Square<N> {
        let mut rng = Xoshiro256::seed_from_u64(seed);
        let mut m = [[Complex32::ZERO; N]; N];
        for z in m.iter_mut().flatten() {
            *z = Complex32::new(rng.next_f32() - 0.5, rng.next_f32() - 0.5);
        }
        m
    }

    fn mul<const N: usize>(a: &Square<N>, b: &Square<N>) -> Square<N> {
        let mut out = [[Complex32::ZERO; N]; N];
        for r in 0..N {
            for c in 0..N {
                for k in 0..N {
                    out[r][c] = out[r][c].mul_add(a[r][k], b[k][c]);
                }
            }
        }
        out
    }

    fn assert_identity<const N: usize>(m: &Square<N>, tol: f32) {
        for (r, row) in m.iter().enumerate() {
            for (c, &z) in row.iter().enumerate() {
                let expect = if r == c {
                    Complex32::ONE
                } else {
                    Complex32::ZERO
                };
                assert!((z - expect).abs() < tol, "({r},{c}) = {z:?}");
            }
        }
    }

    fn check_random_inverses<const N: usize>() {
        for seed in 0..20 {
            let mut m = random_matrix::<N>(seed);
            for (i, row) in m.iter_mut().enumerate() {
                row[i] += Complex32::new(0.5, 0.0); // keep well-conditioned
            }
            let inv = inverse(m).expect("invertible");
            assert_identity(&mul(&m, &inv), 1e-4);
            assert_identity(&mul(&inv, &m), 1e-4);
        }
    }

    #[test]
    fn inverse_of_random_matrices() {
        check_random_inverses::<1>();
        check_random_inverses::<2>();
        check_random_inverses::<3>();
        check_random_inverses::<4>();
    }

    #[test]
    fn identity_inverse_is_identity() {
        let mut i4 = [[Complex32::ZERO; 4]; 4];
        for (i, row) in i4.iter_mut().enumerate() {
            row[i] = Complex32::ONE;
        }
        assert_eq!(inverse(i4), Some(i4));
    }

    #[test]
    fn singular_matrix_returns_none() {
        let mut m = [[Complex32::ZERO; 2]; 2];
        m[0][0] = Complex32::ONE;
        m[1][0] = Complex32::ONE; // rank 1
        assert!(inverse(m).is_none());
    }

    #[test]
    fn pivoting_handles_a_zero_leading_entry() {
        // [[0, 1], [1, 0]] is its own inverse but needs the row swap.
        let mut m = [[Complex32::ZERO; 2]; 2];
        m[0][1] = Complex32::ONE;
        m[1][0] = Complex32::ONE;
        assert_eq!(inverse(m), Some(m));
    }
}
