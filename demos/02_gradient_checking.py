"""Verify the reverse-mode gradients of every training objective against
central finite differences on a small seeded model.

``frozen_losses`` makes each loss a deterministic function of the
parameters, as a finite-difference check needs:
  - text masking draws from a fixed seed;
  - graph masking draws from the first seed that masks at least one unit,
    so the graph loss has real gradients;
  - the transport plan is solved once and then frozen: the loss is linear in
    the cost matrix given the plan, so finite differences see the same
    function the analytic backward pass differentiates.

Run:  python demos/02_gradient_checking.py       (~10 s)
"""

import time

from graph2text.autograd import grad_check
from graph2text.objectives import frozen_losses
from graph2text.synth import build_toy_model

# One-layer, 8-dimensional model over a 3-entity, 2-triple pair: small enough
# that sweeping every parameter element twice takes seconds.
model, corpus = build_toy_model(num_layers=1, d_model=8, d_ff=8)
pair = corpus[0]
print(f"model has {model.store.num_values()} parameter values "
      f"in {len(model.store)} tensors")

for name, f in frozen_losses(model, pair).items():
    t0 = time.time()
    result = grad_check(f, model.store, eps=1e-5, tol=1e-4)
    status = "ok" if result.passed else "FAIL"
    print(f"{name:10s} max relative error {result.max_rel_err:.2e} "
          f"(worst: {result.worst()}) [{status}] {time.time() - t0:.1f}s")
