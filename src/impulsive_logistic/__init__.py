"""Period-1 logistic growth with proportional harvesting impulses.

Five modules, each public name imported from the one that defines it (its
``__all__``): ``coefficients`` (r, K and the forcing constant B),
``closed_form`` (the closed-form solution, the corrected periodic orbit and
its refuted legacy counterpart), ``integrator`` (the RK4 oracle),
``analysis`` (the verification reports) and ``cli`` (the ``implog`` command
line; see the README).
"""

__version__ = "0.1.0"
