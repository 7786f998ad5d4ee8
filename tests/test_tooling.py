"""Source guards: one atomic writer and one retry loop in the package."""
from pathlib import Path

import namecountry

PACKAGE = Path(namecountry.__file__).parent


def test_one_writer_and_one_retry_loop():
    sources = {path.name: path.read_text(encoding="utf-8")
               for path in sorted(PACKAGE.glob("*.py"))}

    def where(needle):
        return [name for name, text in sources.items()
                for _ in range(text.count(needle))]

    assert where("os.replace(") == ["core.py"]  # in core.atomic_open
    assert where("time.sleep(") == ["enrichment.py"]  # in HttpChatOracle
    direct = [name for name in where(".write_text(") + where(".write_bytes(")
              if name != "fixtures.py"]
    assert direct == [], "write files through core.atomic_open"
