//! Element-wise forward operations: arithmetic, activations, dropout.

use std::sync::Arc;

use super::{Op, Tape, Var};

impl Tape {
    /// Element-wise addition. Shapes must match.
    pub fn add(&mut self, a: Var, b: Var) -> Var {
        self.record(Op::Add(a, b))
    }

    /// Element-wise subtraction `a - b`. Shapes must match.
    pub fn sub(&mut self, a: Var, b: Var) -> Var {
        self.record(Op::Sub(a, b))
    }

    /// Element-wise (Hadamard) product. Shapes must match.
    pub fn mul(&mut self, a: Var, b: Var) -> Var {
        self.record(Op::Mul(a, b))
    }

    /// Multiplies every element by the constant `c`.
    pub fn scale(&mut self, a: Var, c: f32) -> Var {
        self.record(Op::Scale(a, c))
    }

    /// Adds the constant `c` to every element.
    pub fn add_scalar(&mut self, a: Var, c: f32) -> Var {
        self.record(Op::AddScalar(a, c))
    }

    /// Negation (`scale` by −1).
    pub fn neg(&mut self, a: Var) -> Var {
        self.scale(a, -1.0)
    }

    /// Multiplies a matrix by a learnable `1 × 1` scalar variable.
    pub fn mul_scalar_var(&mut self, scalar: Var, matrix: Var) -> Var {
        self.record(Op::MulScalarVar { scalar, matrix })
    }

    /// Logistic sigmoid `1 / (1 + e^{-x})`.
    pub fn sigmoid(&mut self, a: Var) -> Var {
        self.record(Op::Sigmoid(a))
    }

    /// Rectified linear unit.
    pub fn relu(&mut self, a: Var) -> Var {
        self.record(Op::Relu(a))
    }

    /// Leaky ReLU with the given negative slope.
    pub fn leaky_relu(&mut self, a: Var, slope: f32) -> Var {
        self.record(Op::LeakyRelu(a, slope))
    }

    /// Exponential linear unit `x > 0 ? x : α(e^x − 1)`.
    pub fn elu(&mut self, a: Var, alpha: f32) -> Var {
        self.record(Op::Elu(a, alpha))
    }

    /// Hyperbolic tangent.
    pub fn tanh(&mut self, a: Var) -> Var {
        self.record(Op::Tanh(a))
    }

    /// `sqrt(x + eps)`; `eps > 0` keeps the derivative finite at `x = 0`.
    pub fn sqrt_eps(&mut self, a: Var, eps: f32) -> Var {
        assert!(eps > 0.0, "sqrt_eps: eps must be positive");
        self.record(Op::Sqrt(a, eps))
    }

    /// `ln(x + eps)`; `eps > 0` keeps the value and derivative finite at 0.
    pub fn log_eps(&mut self, a: Var, eps: f32) -> Var {
        assert!(eps > 0.0, "log_eps: eps must be positive");
        self.record(Op::Log(a, eps))
    }

    /// Element-wise exponential.
    pub fn exp(&mut self, a: Var) -> Var {
        self.record(Op::Exp(a))
    }

    /// Binary-entropy helper `−x·ln(x) − (1−x)·ln(1−x)` for mask
    /// regularisation (inputs expected in (0, 1); epsilon-guarded).
    pub fn binary_entropy(&mut self, a: Var) -> Var {
        let log_p = self.log_eps(a, 1e-6);
        let p_logp = self.mul(a, log_p);
        let neg = self.neg(a);
        let one_minus = self.add_scalar(neg, 1.0);
        let log_q = self.log_eps(one_minus, 1e-6);
        let q_logq = self.mul(one_minus, log_q);
        let s = self.add(p_logp, q_logq);
        self.neg(s)
    }

    /// Element-wise absolute value.
    pub fn abs(&mut self, a: Var) -> Var {
        self.record(Op::Abs(a))
    }

    /// Applies a pre-sampled dropout mask (entries are `0` or `1/(1−p)`).
    ///
    /// The caller samples the mask so that the tape stays deterministic and
    /// replayable; see [`crate::dropout_mask`].
    pub fn dropout(&mut self, a: Var, mask: Arc<Vec<f32>>) -> Var {
        self.record(Op::Dropout { src: a, mask })
    }

    /// Row-broadcast bias addition: `(n × f) + (1 × f)`.
    pub fn add_row_broadcast(&mut self, matrix: Var, bias: Var) -> Var {
        self.record(Op::AddRowBroadcast { matrix, bias })
    }

    /// Column-broadcast scaling: `(n × f) * (n × 1)`.
    pub fn mul_col_broadcast(&mut self, matrix: Var, scaler: Var) -> Var {
        self.record(Op::MulColBroadcast { matrix, scaler })
    }
}

/// Samples a dropout mask: each entry is `0` with probability `p`, otherwise
/// `1/(1−p)` (inverted dropout). With `p == 0` the mask is all ones.
pub fn dropout_mask(len: usize, p: f32, rng: &mut impl rand::Rng) -> Arc<Vec<f32>> {
    assert!(
        (0.0..1.0).contains(&p),
        "dropout probability must be in [0, 1)"
    );
    if p.abs().to_bits() == 0 {
        return Arc::new(vec![1.0; len]);
    }
    let keep = 1.0 / (1.0 - p);
    Arc::new(
        (0..len)
            .map(|_| if rng.gen::<f32>() < p { 0.0 } else { keep })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::Matrix;
    use rand::SeedableRng;

    fn tape_with(vals: &[f32]) -> (Tape, Var) {
        let mut t = Tape::new();
        let v = t.leaf(Matrix::from_vec(1, vals.len(), vals.to_vec()));
        (t, v)
    }

    #[test]
    fn arithmetic_forward() {
        let mut t = Tape::new();
        let a = t.leaf(Matrix::row_vec(&[1.0, 2.0]));
        let b = t.leaf(Matrix::row_vec(&[3.0, 5.0]));
        let s = t.add(a, b);
        assert_eq!(t.value(s).as_slice(), &[4.0, 7.0]);
        let d = t.sub(a, b);
        assert_eq!(t.value(d).as_slice(), &[-2.0, -3.0]);
        let m = t.mul(a, b);
        assert_eq!(t.value(m).as_slice(), &[3.0, 10.0]);
    }

    #[test]
    fn activations_forward() {
        let (mut t, v) = tape_with(&[-1.0, 0.0, 2.0]);
        let r = t.relu(v);
        assert_eq!(t.value(r).as_slice(), &[0.0, 0.0, 2.0]);
        let l = t.leaky_relu(v, 0.1);
        assert_eq!(t.value(l).as_slice(), &[-0.1, 0.0, 2.0]);
        let s = t.sigmoid(v);
        let sv = t.value(s).as_slice().to_vec();
        assert!((sv[1] - 0.5).abs() < 1e-6);
        assert!(sv[0] < 0.5 && sv[2] > 0.5);
        let e = t.elu(v, 1.0);
        let ev = t.value(e).as_slice().to_vec();
        assert!((ev[0] - ((-1.0f32).exp() - 1.0)).abs() < 1e-6);
        assert_eq!(ev[2], 2.0);
    }

    #[test]
    fn broadcast_ops_forward() {
        let mut t = Tape::new();
        let m = t.leaf(Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]));
        let bias = t.leaf(Matrix::row_vec(&[10.0, 20.0]));
        let o = t.add_row_broadcast(m, bias);
        assert_eq!(t.value(o).as_slice(), &[11.0, 22.0, 13.0, 24.0]);
        let s = t.leaf(Matrix::col_vec(&[2.0, 0.5]));
        let o2 = t.mul_col_broadcast(m, s);
        assert_eq!(t.value(o2).as_slice(), &[2.0, 4.0, 1.5, 2.0]);
    }

    #[test]
    fn dropout_mask_scales() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let m = dropout_mask(10_000, 0.5, &mut rng);
        let zeros = m.iter().filter(|&&x| x == 0.0).count();
        assert!((4_000..6_000).contains(&zeros), "zeros={zeros}");
        assert!(m.iter().all(|&x| x == 0.0 || (x - 2.0).abs() < 1e-6));
        let none = dropout_mask(5, 0.0, &mut rng);
        assert!(none.iter().all(|&x| x == 1.0));
    }

    #[test]
    fn mul_scalar_var_forward() {
        let mut t = Tape::new();
        let s = t.leaf(Matrix::scalar(3.0));
        let m = t.leaf(Matrix::row_vec(&[1.0, 2.0]));
        let o = t.mul_scalar_var(s, m);
        assert_eq!(t.value(o).as_slice(), &[3.0, 6.0]);
    }
}
