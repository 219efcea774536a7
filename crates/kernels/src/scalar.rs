//! Sequential reference kernels — the textbook loops every other path is
//! verified against.

/// Inner product, left-to-right.
pub fn dot(a: &[f32], b: &[f32]) -> f32 {
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

/// `y += alpha · x`, element order.
pub fn axpy(alpha: f32, x: &[f32], y: &mut [f32]) {
    for (yi, &xi) in y.iter_mut().zip(x) {
        *yi += alpha * xi;
    }
}

/// `y *= alpha`, element order.
pub fn scale(y: &mut [f32], alpha: f32) {
    for yi in y {
        *yi *= alpha;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dot_identities() {
        assert_eq!(dot(&[], &[]), 0.0);
        assert_eq!(dot(&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]), 32.0);
    }

    #[test]
    fn axpy_and_scale() {
        let mut y = vec![1.0f32, 2.0];
        axpy(2.0, &[10.0, 20.0], &mut y);
        assert_eq!(y, vec![21.0, 42.0]);
        scale(&mut y, 0.5);
        assert_eq!(y, vec![10.5, 21.0]);
    }
}
