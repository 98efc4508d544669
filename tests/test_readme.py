"""The README documents the package's public surface."""

import pathlib
import re

import ash

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def test_readme_library_section_names_every_public_name():
    text = README.read_text()
    library = text[text.index("## Library") :]
    library = library[: library.index("\n## ", 1)]
    missing = [
        name
        for name in ash.__all__
        if not re.search(rf"`{name}`|\bash\.{name}\b", library)
    ]
    assert not missing
