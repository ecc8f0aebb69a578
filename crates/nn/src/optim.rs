//! Optimizers and learning-rate schedules.

use sar_tensor::{Tensor, Var};

/// Learning-rate schedule, evaluated per epoch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LrSchedule {
    /// Constant learning rate.
    Constant,
    /// Multiply by `gamma` every `every` epochs (the paper trains with a
    /// decaying learning rate).
    StepDecay {
        /// Decay period in epochs.
        every: usize,
        /// Multiplicative factor per period.
        gamma: f32,
    },
    /// Cosine decay from the base rate to `floor` over `total` epochs.
    Cosine {
        /// Total epochs of the schedule.
        total: usize,
        /// Final learning rate.
        floor: f32,
    },
}

impl LrSchedule {
    /// Learning rate at `epoch` given the base rate.
    pub fn lr_at(&self, base: f32, epoch: usize) -> f32 {
        match *self {
            LrSchedule::Constant => base,
            LrSchedule::StepDecay { every, gamma } => {
                base * gamma.powi((epoch / every.max(1)) as i32)
            }
            LrSchedule::Cosine { total, floor } => {
                let t = (epoch.min(total)) as f32 / total.max(1) as f32;
                floor + 0.5 * (base - floor) * (1.0 + (std::f32::consts::PI * t).cos())
            }
        }
    }
}

/// Adam optimizer (Kingma & Ba 2015).
#[derive(Debug)]
pub struct Adam {
    params: Vec<Var>,
    m: Vec<Tensor>,
    v: Vec<Tensor>,
    base_lr: f32,
    beta1: f32,
    beta2: f32,
    eps: f32,
    t: i32,
    schedule: LrSchedule,
    epoch: usize,
}

impl Adam {
    /// Creates an Adam optimizer over `params` with the usual defaults
    /// (β₁ = 0.9, β₂ = 0.999, ε = 1e-8).
    pub fn new(params: Vec<Var>, lr: f32) -> Self {
        let m = params.iter().map(|p| Tensor::zeros(&p.shape())).collect();
        let v = params.iter().map(|p| Tensor::zeros(&p.shape())).collect();
        Adam {
            params,
            m,
            v,
            base_lr: lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            t: 0,
            schedule: LrSchedule::Constant,
            epoch: 0,
        }
    }

    /// Attaches a learning-rate schedule.
    pub fn with_schedule(mut self, schedule: LrSchedule) -> Self {
        self.schedule = schedule;
        self
    }

    /// Clears all parameter gradients.
    pub fn zero_grad(&self) {
        for p in &self.params {
            p.zero_grad();
        }
    }

    /// Applies one update from the accumulated gradients.
    pub fn step(&mut self) {
        self.t += 1;
        let lr = self.schedule.lr_at(self.base_lr, self.epoch);
        let bc1 = 1.0 - self.beta1.powi(self.t);
        let bc2 = 1.0 - self.beta2.powi(self.t);
        for ((p, m), v) in self.params.iter().zip(&mut self.m).zip(&mut self.v) {
            if let Some(g) = p.grad() {
                *m = m.scale(self.beta1).add(&g.scale(1.0 - self.beta1));
                *v = v.scale(self.beta2).add(&g.mul(&g).scale(1.0 - self.beta2));
                let m_hat = m.scale(1.0 / bc1);
                let v_hat = v.scale(1.0 / bc2);
                let eps = self.eps;
                let update = m_hat.zip_map(&v_hat, |mh, vh| mh / (vh.sqrt() + eps));
                p.update_value(|value| *value = value.sub(&update.scale(lr)));
            }
        }
    }

    /// Advances the schedule by one epoch.
    pub fn advance_epoch(&mut self) {
        self.epoch += 1;
    }

    /// The optimized parameters.
    pub fn params(&self) -> &[Var] {
        &self.params
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn adam_converges_on_quadratic() {
        let x = Var::parameter(Tensor::scalar(0.0));
        let mut opt = Adam::new(vec![x.clone()], 0.1);
        for _ in 0..500 {
            opt.zero_grad();
            let loss = x.add_scalar(-3.0).mul(&x.add_scalar(-3.0)).sum();
            loss.backward();
            opt.step();
        }
        assert!((x.value().item() - 3.0).abs() < 1e-2);
    }

    #[test]
    fn schedules_decay() {
        let s = LrSchedule::StepDecay {
            every: 10,
            gamma: 0.5,
        };
        assert_eq!(s.lr_at(1.0, 0), 1.0);
        assert_eq!(s.lr_at(1.0, 10), 0.5);
        assert_eq!(s.lr_at(1.0, 25), 0.25);
        let c = LrSchedule::Cosine {
            total: 100,
            floor: 0.0,
        };
        assert!((c.lr_at(1.0, 0) - 1.0).abs() < 1e-6);
        assert!((c.lr_at(1.0, 100) - 0.0).abs() < 1e-6);
        assert!(c.lr_at(1.0, 50) < 0.6);
    }

    #[test]
    fn step_without_grad_is_noop() {
        let x = Var::parameter(Tensor::scalar(1.0));
        let mut opt = Adam::new(vec![x.clone()], 0.1);
        opt.step();
        assert_eq!(x.value().item(), 1.0);
    }
}
