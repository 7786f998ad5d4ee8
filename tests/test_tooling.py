"""Source guards: one atomic writer and one retry loop in the package, and
none of the constructs its kernels and bench were rid of."""
from pathlib import Path

import namecountry

PACKAGE = Path(namecountry.__file__).parent


SOURCES = {path.name: path.read_text(encoding="utf-8")
           for path in sorted(PACKAGE.glob("*.py"))}


def where(needle):
    return [name for name, text in SOURCES.items()
            for _ in range(text.count(needle))]


def test_one_writer_and_one_retry_loop():
    assert where("os.replace(") == ["core.py"]  # in core.atomic_open
    assert where("time.sleep(") == ["enrichment.py"]  # in HttpChatOracle
    direct = [name for name in where(".write_text(") + where(".write_bytes(")
              if name != "fixtures.py"]
    assert direct == [], "write files through core.atomic_open"


def test_no_scatter_add_or_thread_pool():
    # The embedding gradient is a sorted segment sum, not an unbuffered
    # scatter; scoring is single-threaded, with no thread-pool path.
    assert where(".add.at(") == []
    assert where("ThreadPoolExecutor") == []
