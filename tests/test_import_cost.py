"""What importing vekg loads, checked in a fresh interpreter.

The benchmark's parent process imports ``vekg.synth`` to build its
inputs, and a ``vekg run`` child keeps that parent's memory high-water
mark, so every module that ``import vekg`` pulls in raises the
``peak_rss_mb`` of every workload.  Each module imported at start-up also
adds to ``setup_s``.  So ``orjson`` is imported only when a stream is
opened, and ``statistics`` only by ``vekg bench``.
"""

import os
import subprocess
import sys
from pathlib import Path

import vekg

SRC = str(Path(vekg.__file__).resolve().parents[1])

PROBE = """
import sys
import vekg, vekg.synth, vekg.cli
print(sorted({"orjson", "statistics"} & set(sys.modules)))
from vekg.ingest import open_stream
open_stream(sys.argv[1]).close()
print(sorted({"orjson"} & set(sys.modules)))
"""


def test_orjson_and_statistics_wait_until_they_are_used(tmp_path):
    stream = tmp_path / "s.jsonl"
    stream.write_text('{"format":"vekg-detections","version":1,"resolution":[10,10]}\n')
    done = subprocess.run([sys.executable, "-c", PROBE, str(stream)],
                          capture_output=True, text=True, check=True,
                          env=dict(os.environ, PYTHONPATH=SRC))
    assert done.stdout.splitlines() == ["[]", "['orjson']"]
