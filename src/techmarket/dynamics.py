"""The model: a replica's start, its per-firm update cycle and sweeps, the
order of their random draws, and what a run writes.

Replica k's stream is MT19937 seeded as ``random.Random(seed)`` is, from
its 64-bit seed (see ``rng``), and every draw u is one ``random()`` value
of it. A replica starts at sweep 0 with round(c * lx * ly) firms on
distinct uniformly chosen sites, with technology ~ Uniform[0, 1), share
1/N(0) and ids 0, 1, ... in placement order. Draw order: the site sample
first, a partial Fisher-Yates pass over the flat site indices with one
draw per firm (step i swaps site i with site i + int(u * (n_sites - i))),
then one technology draw per firm in placement order.

One sweep visits every firm alive at its start exactly once, in a uniformly
random order. Each visit runs the update cycle:

1. If more than n_min firms are alive, roll for survival. A firm whose roll
   fails may still be rescued by the government with probability q, provided
   the active policy covers its current technology segment. A bankrupted
   firm leaves its site and its share is split equally among the survivors.
2. Under the passive variant a rescued firm ends its step; under the active
   variant it carries on like any survivor.
3. A surviving firm picks one of its 4 von Neumann neighbor sites. If the
   site is empty it moves there. At the new location: with no occupied Moore
   site at all, it imperfectly copies the frontier (external diffusion);
   otherwise it looks at one randomly chosen Moore site and interacts with
   the firm found there, or does nothing if that site is empty (a chance
   meeting, so interactions become improbable at low concentration). If the
   originally picked site is occupied the firm stays put and interacts with
   the occupant.
4. An interaction merges the pair with probability b (partner absorbed,
   technology max kept, shares pooled); otherwise the pair tries to found a
   spin-off on one of the actor's 8 Moore sites, which succeeds only if the
   picked site is free.

Firms absorbed mid-sweep are skipped; spin-offs born mid-sweep first act in
the next sweep. After the visits, shares are renormalized (drift beyond 1%
is a model-integrity failure), the sweep counter advances, and the frontier
value for the new sweep is cached.

Draw order per firm visit (all from the replica stream): survival roll r1;
rescue roll q_rnd only when the roll failed and the policy covers the firm's
segment; direction u (always, for any acting firm); then either the copy
noise r2 (diffusion, only with an empty Moore ring) or the meeting-site pick
u; then, when a partner was found or the move was blocked, the merge coin u
and the spin-off site u when the coin came up spin-off. Threshold draws
(r1, q_rnd, merge coin) use (0, 1] so q=0 can never rescue and q=1 always
does. Site picks use int(u * n), clamped to n - 1 for the u -> 1 rounding
edge. Each sweep's visit order comes first: a Fisher-Yates shuffle of the
live firms in ascending id order, swapping position i with position
int(u * (i + 1)) for i from N - 1 down to 1.

A replica runs in the compiled kernel (``_sweep.c``, loaded by
``compiled``): one C call seeds its stream and draws its initial market,
and one runs all of its sweeps and writes its rows straight into its
ensemble's buffers: per sweep N, the weighted mean technology and its ratio
to the frontier at the sweep's start into the replica's row of the
ensemble's matrices, and the sweep's rescues and renormalization error into
a sum and a maximum over the ensemble's replicas, plus one last row holding
only the state at the end. It also finds the first sweep whose mean
technology reaches TC_THRESHOLD. ``tests/oracle.py`` holds the same model
in Python, step for step, and is the reference the kernel is tested
against.

A logged run writes one line of JSON per step, which the kernel hands to
the caller's sink (see ``compiled.run_replicas``): what
``json.dumps(..., separators=(",", ":"))`` gives for the keys replica, t
(the sweep), firm and kind (the step's outcome, in lower case), then
partner (the absorbed firm for merged, the interaction partner for
spin_off and spin_off_blocked), child (a newly founded spin-off's id) and
``"rescued":true`` (the intervention fired during the step: always for
rescued; under the active variant it may accompany an action kind), each
left out when there is none.
"""
from __future__ import annotations

from .errors import IntegrityError
from .market import Segment
from .params import PolicyKind

#: Allowed pre-correction drift of sum(shares) from 1 at a sweep boundary.
RENORM_TOLERANCE = 1e-2
#: Threshold the mean technology must reach to end the catch-up phase; the
#: frontier value at t=0.
TC_THRESHOLD = 1.0

_POLICY_SEGMENT = {
    PolicyKind.LOW_TECH: Segment.LOW,
    PolicyKind.MEDIUM_TECH: Segment.MEDIUM,
    PolicyKind.HIGH_TECH: Segment.HIGH,
}


def renorm_failure(err: float, t: int) -> IntegrityError:
    """The error for a renormalization error above RENORM_TOLERANCE at
    sweep t."""
    return IntegrityError(f"share normalization error {err:.3e} exceeds "
                          f"tolerance {RENORM_TOLERANCE:g} at sweep {t}")
