"""Central finite-difference gradient checking shared by the test modules."""

import numpy as np

from kga2c import numerics as nm


def finite_difference_check(fn, tensors, eps=1e-5, rtol=1e-4, atol=1e-8):
    """Compare autodiff gradients of scalar fn() against central differences
    for every element of every tensor.  Each element must satisfy
    |numeric - analytic| <= atol + rtol * max(|numeric|, |analytic|), so a
    small gradient is held to its own scale; returns the worst ratio of the
    error to that bound."""
    loss = fn()
    for t in tensors:
        t.zero_grad()
    nm.backward(loss)
    worst = 0.0
    for t in tensors:
        grad = t.grad if t.grad is not None else np.zeros_like(t.data)
        flat = t.data.reshape(-1)
        flat_grad = grad.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            hi = fn().item()
            flat[i] = orig - eps
            lo = fn().item()
            flat[i] = orig
            numeric = (hi - lo) / (2 * eps)
            analytic = flat_grad[i]
            bound = atol + rtol * max(abs(numeric), abs(analytic))
            worst = max(worst, abs(numeric - analytic) / bound)
    assert worst <= 1.0, f"gradient mismatch: worst error {worst:.3g} times the bound"
    return worst
