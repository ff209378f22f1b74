"""The README's input-file examples stay valid inputs."""

import re
from pathlib import Path

from evograft.data import parse_gen_spec
from evograft.evolution import MODE_MUNET, parse_segments

README = Path(__file__).resolve().parents[1] / "README.md"


def plain_block(first_word: str) -> str:
    """The README's one unlabelled code block whose first line starts with
    ``first_word``."""
    fenced = re.findall(r"^```(\w*)\n(.*?)^```$", README.read_text("utf-8"), re.S | re.M)
    blocks = [block for language, block in fenced
              if not language and block.startswith(first_word + " ")]
    assert len(blocks) == 1, first_word
    return blocks[0]


def test_readme_gen_spec_and_segment_file_examples_parse():
    spec = parse_gen_spec(plain_block("task"))
    assert [task.name for task in spec.tasks] == ["alpha", "beta"]
    assert len(spec.relations) == 1
    segments = parse_segments(plain_block("segment"))
    assert [segment.label for segment in segments] == ["baseline"]
    assert segments[0].mode == MODE_MUNET and segments[0].tasks == ["alpha", "beta"]
