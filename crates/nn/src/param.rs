//! Trainable parameters with accumulated gradients and Adam state.

use crate::matrix::Matrix;

/// A trainable tensor: value, accumulated gradient and Adam moments.
#[derive(Clone, Debug)]
pub struct Param {
    /// Current value.
    pub value: Matrix,
    /// Accumulated gradient (zeroed by the optimizer after each step).
    pub grad: Matrix,
    /// Adam first moment.
    pub m: Matrix,
    /// Adam second moment.
    pub v: Matrix,
}

impl Param {
    /// Wraps an initial value with zeroed gradient and moments.
    pub fn new(value: Matrix) -> Self {
        let (r, c) = (value.rows(), value.cols());
        Self { value, grad: Matrix::zeros(r, c), m: Matrix::zeros(r, c), v: Matrix::zeros(r, c) }
    }

    /// Accumulates `g` into the gradient.
    pub fn accumulate(&mut self, g: &Matrix) {
        self.grad.add_assign(g);
    }

    /// Number of scalar parameters.
    pub fn len(&self) -> usize {
        self.value.rows() * self.value.cols()
    }

    /// `true` when the parameter is empty (never the case in practice).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accumulate_and_zero() {
        let mut p = Param::new(Matrix::zeros(2, 2));
        let g = Matrix::from_fn(2, 2, |_, _| 1.5);
        p.accumulate(&g);
        p.accumulate(&g);
        assert_eq!(p.grad.get(1, 1), 3.0);
        assert_eq!(p.len(), 4);
    }
}
