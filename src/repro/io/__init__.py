"""Netlist and placement I/O: BLIF, Verilog, placement text, tables,
congestion-map artifacts."""

from .blif import dump_blif, parse_blif
from .placement_io import dump_placement, parse_placement
from .report import (
    congestion_map_csv,
    congestion_map_text,
    format_table,
    k_sweep_table,
    render_heatmap,
    sta_table,
    write_congestion_artifacts,
)
from .verilog import dump_verilog
from .verilog_reader import parse_verilog

__all__ = [
    "congestion_map_csv",
    "congestion_map_text",
    "dump_blif",
    "dump_placement",
    "dump_verilog",
    "format_table",
    "k_sweep_table",
    "parse_blif",
    "parse_placement",
    "parse_verilog",
    "render_heatmap",
    "sta_table",
    "write_congestion_artifacts",
]
