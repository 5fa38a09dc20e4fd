"""ionlink: simulator and analytic toolkit for heralded photon-mediated
entanglement of co-trapped ion qubits with sympathetic cooling.

The package exposes ``__version__`` only; import the submodules
(``ionlink.config``, ``ionlink.protocol``, ...), so that a command-line run
loads just the modules its subcommand uses."""

__version__ = "0.1.0"
