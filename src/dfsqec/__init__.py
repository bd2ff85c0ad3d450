"""Density-matrix toolkit for a concatenated passive+active
phase-error-correcting code under engineered dephasing.

The inner code stores a logical qubit in the decoherence-free pair
|01>/|10> of qubits 3 and 4, which collective z noise cannot touch;
the outer three-qubit phase code then corrects the residual
independent phase errors.  Channels, circuits, metrics and the sweep
harness are exact dense-matrix computations with closed-form
references for every scenario.
"""
from .codes import build_scenario_circuit
from .experiments import ScenarioConfig, emit_chart, emit_csv, hump_demo, run_scenario
from .qstate import DensityMatrix, embed

__version__ = "0.1.0"
