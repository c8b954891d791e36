"""The paper's literal P′ (Eqs. 9–11 with ``y``): a test-only oracle.

The package compiles P′ without the per-pair mode bit ``y[s,l]`` and
keeps only the McCormick row ``w <= x`` (DESIGN §1.1).  This module lifts
a compiled y-free form back to the literal linearization, so tests can
check that dropping ``y`` changes neither the MILP optimum nor the LP
bound:

* :func:`literal_form` appends one ``y`` column per programmable pair
  (after ``r``) and the two dropped row families, ``w - y <= 0`` and
  ``x + y - w <= 1``, one row each per ``w`` in (pair, controller)
  order.
* :func:`lift_point` maps a y-free point into the literal form with
  ``y = Σ_c w``.

The literal form's first columns are the y-free form's columns, so
:meth:`~repro.perf.compile.CompiledFMSSM.extract` reads both.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse

from repro.lp.standard_form import StandardForm
from repro.perf.compile import CompiledFMSSM

__all__ = ["literal_form", "lift_point", "is_feasible"]


def _w_layout(compiled: CompiledFMSSM) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(pair, w column, x column) of every ``w`` in (pair, controller) order."""
    p, m = len(compiled.pairs), len(compiled.controllers)
    pair = np.repeat(np.arange(p, dtype=np.int64), m)
    ci = np.tile(np.arange(m, dtype=np.int64), p)
    w_cols = compiled.n_x + pair * m + ci
    x_cols = compiled.pair_switch_idx[pair] * m + ci
    return pair, w_cols, x_cols


def literal_form(compiled: CompiledFMSSM) -> StandardForm:
    """``compiled.form`` with the paper's ``y`` columns and ``wy``/``wxy`` rows."""
    form = compiled.form
    n, p = form.n_vars, len(compiled.pairs)
    pair, w_cols, x_cols = _w_layout(compiled)
    q = len(w_cols)
    y_cols = n + pair
    wy = np.arange(q, dtype=np.int64)
    wxy = q + wy
    extra = sparse.csr_matrix(
        (
            np.concatenate([np.ones(q), -np.ones(q), np.ones(q), np.ones(q), -np.ones(q)]),
            (
                np.concatenate([wy, wy, wxy, wxy, wxy]),
                np.concatenate([w_cols, y_cols, x_cols, y_cols, w_cols]),
            ),
        ),
        shape=(2 * q, n + p),
    )
    a_ub = sparse.vstack(
        [sparse.hstack([form.a_ub, sparse.csr_matrix((form.a_ub.shape[0], p))]), extra]
    ).tocsr()
    var_names = form.var_names
    if var_names:
        var_names = var_names + tuple(f"y[{s},{f}]" for s, f in compiled.pairs)
    return StandardForm(
        c=np.concatenate([form.c, np.zeros(p)]),
        a_ub=a_ub,
        b_ub=np.concatenate([form.b_ub, np.zeros(q), np.ones(q)]),
        a_eq=sparse.csr_matrix((0, n + p)),
        b_eq=np.zeros(0),
        lb=np.concatenate([form.lb, np.zeros(p)]),
        ub=np.concatenate([form.ub, np.ones(p)]),
        integrality=np.concatenate([form.integrality, np.ones(p)]),
        maximize=form.maximize,
        objective_constant=form.objective_constant,
        var_names=var_names,
    )


def lift_point(compiled: CompiledFMSSM, x: np.ndarray) -> np.ndarray:
    """The literal-form point of y-free ``x``: ``y[k] = Σ_c w[k,c]``."""
    p, m = len(compiled.pairs), len(compiled.controllers)
    w = x[compiled.n_x : compiled.n_x + p * m].reshape(p, m)
    return np.concatenate([x, w.sum(axis=1)])


def is_feasible(form: StandardForm, x: np.ndarray, tol: float = 1e-6) -> bool:
    """Whether ``x`` satisfies every row and bound of ``form`` within ``tol``."""
    return bool(
        np.all(x >= form.lb - tol)
        and np.all(x <= form.ub + tol)
        and np.all(form.a_ub @ x <= form.b_ub + tol)
    )
