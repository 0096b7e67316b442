"""Graph-based complex event processing over object-detection streams."""

from .geometry import (BoundingBox, DirectionClass, Region,
                       SpatialRelationClass)
from .graph import VekgGraph, build_frame_graph, stream_graphs
from .ingest import FrameDetections, ObjectNode, open_stream, parse_frame
from .metrics import AccuracyReport, GroundTruthEvent, LatencyReport, score
from .pipeline import run_pipeline
from .rules import (EventRule, MatchNotification, RuleKind, RuleSet,
                    register_rules)
from .tag import VekgTag, X, aggregate, edge_series, motion_series, reduction_report
from .temporal import (AllenRelation, Interval, allen, no_motion_span,
                       pelt_changepoints, trend)
from .windowing import WindowState, time_window

__version__ = "0.1.0"
