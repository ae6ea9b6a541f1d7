"""Achievable secrecy rates for wiretap channels whose two eavesdroppers
cooperate over capacity-limited links.

Gaussian models come in two flavors: an orthogonal one, where eavesdropper
cooperation happens in dedicated bands, and a shared-band one, where the
cooperation signals also reach the legitimate receiver.  Closed forms live in
:mod:`wiretap_rates.gaussian`, the covariance-based reference evaluation in
:mod:`wiretap_rates.oracle`, worst-case correlation searches in
:mod:`wiretap_rates.optimize`, and the discrete memoryless counterpart in
:mod:`wiretap_rates.discrete`.  :mod:`wiretap_rates.audit` cross-checks the
closed forms against the covariance route on random draws.

The package root exports nothing: import each name from the module that
defines it.
"""
