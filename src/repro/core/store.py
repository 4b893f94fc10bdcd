"""Content-addressed verdict store shared across runs and machines.

:class:`VerdictStore` is the solver's persistent memo of check-sat
verdicts and the one place they live: a sharded, content-addressed
store (``<digest[:2]>/<digest>.json``, each verdict next to its proof
certificate) with an index file, portable export/import archives, and
garbage collection — the shape *Divide, Conquer and Verify* uses to
memoize verified slices.

Because entries are keyed by the alpha-blind canonical digest of the
query DAG (``repro.smt.terms.canonicalize_query``), two machines that
verify the same monitor — or the same monitor under differently numbered
fresh constants — produce byte-compatible entries.  CI jobs therefore
hand verdicts to each other by exporting the store as an artifact and
importing it on the next job (see ``.github/workflows/ci.yml``).

Writes are atomic (tempfile + rename in the shard directory), so any
number of worker processes and concurrent CI jobs can share a store
without locking; the worst race is two writers storing identical
entries.

Command-line interface::

    python -m repro.core.store stats  [--store DIR]
    python -m repro.core.store index  [--store DIR]
    python -m repro.core.store gc     [--store DIR] [--max-age-h H] [--keep N]
    python -m repro.core.store export ARCHIVE [--store DIR]
    python -m repro.core.store import ARCHIVE [--store DIR] [--wait]
    python -m repro.core.store serve  [--store DIR] [--host H] [--port P]
    python -m repro.core.store flush  [--store DIR] [--remote URL]

Bulk imports take an flock (``.import.lock``) so two concurrent
imports into one store cannot interleave their shard scans; a second
importer refuses with exit code 3 unless ``--wait`` is passed.

``serve`` exposes the store over HTTP (the object-store protocol in
``repro.core.remote``); ``flush`` synchronously pushes any write-back
spool left behind by an interrupted remote flush.
"""

from __future__ import annotations

import contextlib
import gzip
import json
import os
import re
import sys
import tarfile
import tempfile
import threading
import time

try:
    import fcntl
except ImportError:  # non-POSIX: imports proceed unguarded
    fcntl = None

from ..smt.model import Model
from ..smt.solver import SAT, UNSAT, CheckResult

__all__ = [
    "StoreLockedError",
    "VerdictStore",
    "DEFAULT_STORE_DIR",
    "open_store",
    "main",
]

DEFAULT_STORE_DIR = os.environ.get("REPRO_CACHE_DIR", ".solvercache")

# Entry files are named by hex digest; anything else in the tree is not
# a verdict (index, tempfiles) and is never exported or collected.
_DIGEST_RE = re.compile(r"^[0-9a-f]{16,64}$")

INDEX_NAME = "index.json"
IMPORT_LOCK_NAME = ".import.lock"
# Write-back markers for the remote tier (repro.core.remote) live in
# their own subdirectory so store walks never mistake them for entries.
SPOOL_DIR_NAME = ".remote-spool"


class StoreLockedError(RuntimeError):
    """Another process holds the store's import lock."""


def _stat_or_none(fname: str):
    """``os.stat`` that treats a vanished file as absent.

    Store scans (index, summary, gc, export) run concurrently with
    writers and with gc in other processes, so any file listed a moment
    ago may already be gone; that is a skip, never an error.
    """
    try:
        return os.stat(fname)
    except OSError:
        return None


def _atomic_write(target: str, data: bytes) -> bool:
    """Write ``data`` to ``target`` via a rename, so readers never see
    a torn file.  The temporary name is unique per process and thread;
    the directory is created only when the first open finds it missing
    (emission sits on the solve path).  False if the write failed."""
    tmp = f"{target}.{os.getpid()}.{threading.get_ident()}.tmp"
    try:
        try:
            handle = open(tmp, "wb")
        except FileNotFoundError:
            os.makedirs(os.path.dirname(target), exist_ok=True)
            handle = open(tmp, "wb")
        with handle:
            handle.write(data)
        os.replace(tmp, target)
    except OSError:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        return False
    return True


class VerdictStore:
    """Persistent memo of solver verdicts, keyed by canonical digest.

    Layout: ``<path>/<digest[:2]>/<digest>.json`` with the certificate
    beside it as ``<digest>.cert.json`` (``.gz`` past
    :attr:`CERT_GZIP_THRESHOLD`); two-level sharding keeps directory
    sizes bounded at fleet scale.  Every write is atomic (tempfile +
    rename), so concurrent worker processes share a store without
    locking: the worst race is two workers solving the same query and
    storing identical entries.

    Models are stored under canonical variable names (the alpha
    renaming from ``canonicalize_query``) and remapped to the hitting
    query's own variable names on load — this is what makes
    alpha-equivalent queries share counterexamples, not just verdicts.
    ``unknown`` verdicts are budget-dependent and are never stored.
    """

    # Certificates above this size gzip to a fraction of it; below it
    # the gzip header overhead is not worth a second file format.
    CERT_GZIP_THRESHOLD = 32768

    def __init__(self, path: str):
        self.path = path
        os.makedirs(path, exist_ok=True)
        self.hits = 0
        self.misses = 0
        self.stores = 0

    def _entry_path(self, digest: str) -> str:
        return os.path.join(self.path, digest[:2], f"{digest}.json")

    def _cert_path(self, digest: str) -> str:
        """Base certificate path (without the optional ``.gz``)."""
        return os.path.join(self.path, digest[:2], f"{digest}.cert.json")

    def _find_entry_file(self, digest: str) -> str | None:
        path = self._entry_path(digest)
        return path if os.path.exists(path) else None

    def _find_cert_file(self, digest: str) -> str | None:
        """On-disk certificate for ``digest`` (plain or gzipped), or None."""
        base = self._cert_path(digest)
        for candidate in (base, base + ".gz"):
            if os.path.exists(candidate):
                return candidate
        return None

    # -- verdicts and certificates (the Solver's interface) --------------

    def lookup(self, digest: str, var_map: dict[str, str]) -> CheckResult | None:
        """Return the stored result for ``digest``, or None on a miss."""
        entry = self._read_entry(digest)
        if entry is None:
            self.misses += 1
            return None
        self.hits += 1
        return self._entry_to_result(entry, var_map)

    def _read_entry(self, digest: str) -> dict | None:
        """Load the raw JSON entry for ``digest``, or None if absent or
        corrupt (a torn write loses one memo, never a verdict)."""
        try:
            with open(self._entry_path(digest)) as handle:
                return json.load(handle)
        except (OSError, ValueError):
            return None

    @staticmethod
    def _entry_to_result(entry: dict, var_map: dict[str, str]) -> CheckResult:
        """Materialize a stored entry as a :class:`CheckResult` for the
        hitting query: models come back from canonical variable names to
        the query's own names via ``var_map``.  Shared with the remote
        read-through tier, which adopts entries from other machines and
        must replay them identically."""
        stats = {"cache_hit": True, "time_s": 0.0}
        if entry["status"] == SAT:
            canon_to_name = {canon: name for name, canon in var_map.items()}
            values = {
                canon_to_name[canon]: value
                for canon, value in entry["model"].items()
                if canon in canon_to_name
            }
            return CheckResult(SAT, Model(values), stats=stats)
        return CheckResult(UNSAT, stats=stats)

    def store(self, digest: str, var_map: dict[str, str], result: CheckResult) -> None:
        """Persist a sat/unsat verdict (models under canonical names)."""
        if result.status not in (SAT, UNSAT):
            return
        entry: dict = {"status": result.status}
        if result.status == SAT:
            entry["model"] = {
                var_map[name]: value
                for name, value in result.model.items()
                if name in var_map
            }
        if not _atomic_write(self._entry_path(digest), json.dumps(entry).encode()):
            return
        self.stores += 1

    def store_certificate(self, digest: str, cert: dict | bytes) -> bool:
        """Persist a certificate (a document, or its JSON encoding)
        next to its verdict entry (atomic write; large documents are
        gzipped).  False if the write failed."""
        data = json.dumps(cert, separators=(",", ":")).encode() if isinstance(cert, dict) else cert
        base = self._cert_path(digest)
        target, stale = base, base + ".gz"
        if len(data) >= self.CERT_GZIP_THRESHOLD:
            # Level 1: these documents are short-lived store siblings,
            # and emission sits on the solve path — speed over ratio.
            data = gzip.compress(data, 1)
            target, stale = base + ".gz", base
        if not _atomic_write(target, data):
            return False
        # Two runs of the same digest may disagree on compression (the
        # certificate depends on session history); never leave both.
        try:
            os.unlink(stale)
        except OSError:
            pass
        return True

    def load_certificate(self, digest: str) -> dict | None:
        """The stored certificate for ``digest``, or None (absent or
        corrupt; ``checkproof --require-certs`` reports such entries)."""
        base = self._cert_path(digest)
        try:
            with open(base, "rb") as handle:
                return json.loads(handle.read().decode())
        except (OSError, ValueError):
            pass
        try:
            with open(base + ".gz", "rb") as handle:
                return json.loads(gzip.decompress(handle.read()).decode())
        except (OSError, ValueError):
            return None

    def clear(self) -> None:
        """Delete every entry and certificate (the index and spool stay)."""
        for name in os.listdir(self.path):
            full = os.path.join(self.path, name)
            if os.path.isdir(full) and len(name) == 2:
                for sub in os.listdir(full):
                    if sub.endswith((".json", ".json.gz")):
                        try:
                            os.unlink(os.path.join(full, sub))
                        except OSError:
                            pass

    # -- enumeration ----------------------------------------------------

    def digests(self) -> list[str]:
        """Every digest present, sorted."""
        found: set[str] = set()
        try:
            names = os.listdir(self.path)
        except OSError:
            return []
        for name in names:
            full = os.path.join(self.path, name)
            if not (len(name) == 2 and os.path.isdir(full)):
                continue
            try:
                shard = os.listdir(full)
            except OSError:
                continue  # shard removed mid-scan
            for fname in shard:
                stem, ext = os.path.splitext(fname)
                if ext == ".json" and _DIGEST_RE.match(stem):
                    found.add(stem)
        return sorted(found)

    # -- raw object writes (the remote tier and HTTP server) -------------

    def put_raw_entry(self, digest: str, raw: bytes) -> bool:
        """Write a verdict entry from its raw JSON bytes.

        First writer wins (matching :meth:`import_archive`: existing
        digests are identical by construction, the digest *is* the
        content address).  Returns True when the entry was created,
        False when one already existed or the write failed.  Atomic
        like every store write, so racing writers are safe.
        """
        if self._find_entry_file(digest) is not None:
            return False
        return _atomic_write(self._entry_path(digest), raw)

    def put_raw_cert(self, digest: str, raw: bytes) -> bool:
        """Write a certificate from raw (uncompressed) JSON bytes, with
        the same first-writer-wins semantics as :meth:`put_raw_entry`.
        Large documents gzip exactly like :meth:`store_certificate`."""
        if self._find_cert_file(digest) is not None:
            return False
        return self.store_certificate(digest, raw)

    # -- remote write-back spool -----------------------------------------

    @property
    def spool_dir(self) -> str:
        return os.path.join(self.path, SPOOL_DIR_NAME)

    def spool_pending(self) -> list[str]:
        """Digests whose remote write-back has not completed, sorted.

        Each pending digest is a ``<digest>.json`` marker dropped by
        the remote tier at store time and removed after a successful
        flush — so anything here survived an interrupted flush (or a
        down remote) and still owes the fleet an upload.
        """
        try:
            names = os.listdir(self.spool_dir)
        except OSError:
            return []
        pending = []
        for name in names:
            stem, ext = os.path.splitext(name)
            if ext == ".json" and _DIGEST_RE.match(stem):
                pending.append(stem)
        return sorted(pending)

    # -- index ----------------------------------------------------------

    @property
    def index_path(self) -> str:
        return os.path.join(self.path, INDEX_NAME)

    def write_index(self) -> dict:
        """Rebuild ``index.json``: one row per entry (status, size, age).

        The index is advisory — lookups never consult it — but it makes
        a store self-describing for humans and for ``stats`` on stores
        too large to walk cheaply.  Written atomically like any entry.
        """
        rows = {}
        for digest in self.digests():
            fname = self._find_entry_file(digest)
            if fname is None:
                continue
            entry = self._read_entry(digest)
            if entry is None:
                continue
            st = _stat_or_none(fname)
            if st is None:
                continue
            rows[digest] = {
                "status": entry.get("status"),
                "bytes": st.st_size,
                "mtime": st.st_mtime,
                "cert": self._find_cert_file(digest) is not None,
            }
        index = {
            "version": 1,
            "entries": len(rows),
            "spool_pending": len(self.spool_pending()),
            "rows": rows,
        }
        fd, tmp = tempfile.mkstemp(dir=self.path, suffix=".tmp")
        with os.fdopen(fd, "w") as handle:
            json.dump(index, handle, indent=2)
        os.replace(tmp, self.index_path)
        return index

    # -- stats / gc ------------------------------------------------------

    def summary(self) -> dict:
        """Counts by verdict, total bytes, entry and certificate counts.

        A verdict can still lack a certificate (one that failed to
        assemble, or an archive imported from elsewhere), so every
        per-entry field here is optional: a missing or unreadable
        certificate only decrements a count, it never aborts the walk;
        ``checkproof --require-certs`` is the audit that fails on it.
        """
        by_status: dict[str, int] = {}
        total_bytes = 0
        count = 0
        certs = 0
        cert_bytes = 0
        for digest in self.digests():
            entry = self._read_entry(digest)
            if entry is None:
                continue
            count += 1
            by_status[entry.get("status", "?")] = by_status.get(entry.get("status", "?"), 0) + 1
            fname = self._find_entry_file(digest)
            st = _stat_or_none(fname) if fname else None
            if st is not None:
                total_bytes += st.st_size
            cert_file = self._find_cert_file(digest)
            cst = _stat_or_none(cert_file) if cert_file else None
            if cst is not None:
                certs += 1
                cert_bytes += cst.st_size
        return {
            "path": self.path,
            "entries": count,
            "bytes": total_bytes,
            "by_status": by_status,
            "certificates": certs,
            "cert_bytes": cert_bytes,
            # Interrupted remote flushes leave their write-back markers
            # behind; surfacing the backlog here (instead of silently
            # skipping the spool directory) is what lets operators see
            # verdicts that never reached the shared store.
            "spool_pending": len(self.spool_pending()),
        }

    def gc(self, max_age_s: float | None = None, keep: int | None = None) -> int:
        """Collect entries older than ``max_age_s`` and/or trim to the
        ``keep`` most recently touched.  Returns the number removed.

        Verdicts never go stale semantically (the digest pins the exact
        query), so GC is purely a size policy for long-lived shared
        stores.
        """
        now = time.time()
        aged: list[tuple[float, str, str]] = []
        for digest in self.digests():
            fname = self._find_entry_file(digest)
            if fname is None:
                continue
            st = _stat_or_none(fname)
            if st is None:
                continue
            aged.append((st.st_mtime, digest, fname))
        aged.sort(reverse=True)  # newest first
        doomed: list[str] = []
        for rank, (mtime, digest, fname) in enumerate(aged):
            too_old = max_age_s is not None and (now - mtime) > max_age_s
            overflow = keep is not None and rank >= keep
            if too_old or overflow:
                doomed.append(fname)
                # An orphan certificate has nothing to certify; drop it
                # with its entry (uncounted: the return value is entries).
                cert_file = self._find_cert_file(digest)
                if cert_file is not None:
                    try:
                        os.unlink(cert_file)
                    except OSError:
                        pass
                # Likewise its write-back marker: a collected entry can
                # never be flushed, so the marker would sit in the spool
                # forever as phantom backlog.
                marker = os.path.join(self.spool_dir, f"{digest}.json")
                if os.path.exists(marker):
                    try:
                        os.unlink(marker)
                    except OSError:
                        pass
        removed = 0
        for fname in doomed:
            try:
                os.unlink(fname)
                removed += 1
            except OSError:
                pass
        return removed

    # -- export / import -------------------------------------------------

    def export_archive(self, archive_path: str) -> int:
        """Write every entry into a ``.tar.gz``; returns the entry count.

        The archive stores sharded relative names
        (``ab/ab12....json``).  Certificates travel with their entries
        (``ab/ab12....cert.json[.gz]``) — an imported verdict stays
        independently checkable.
        """
        self.write_index()
        count = 0
        with tarfile.open(archive_path, "w:gz") as tar:
            for digest in self.digests():
                fname = self._find_entry_file(digest)
                if fname is None:
                    continue
                try:
                    tar.add(fname, arcname=f"{digest[:2]}/{digest}.json")
                except OSError:
                    continue  # entry gc'd mid-export
                count += 1
                cert_file = self._find_cert_file(digest)
                if cert_file is not None:
                    suffix = ".cert.json.gz" if cert_file.endswith(".gz") else ".cert.json"
                    try:
                        tar.add(cert_file, arcname=f"{digest[:2]}/{digest}{suffix}")
                    except OSError:
                        pass  # cert gc'd mid-export; entry still valid
            tar.add(self.index_path, arcname=INDEX_NAME)
        return count

    @property
    def import_lock_path(self) -> str:
        return os.path.join(self.path, IMPORT_LOCK_NAME)

    @contextlib.contextmanager
    def import_lock(self, wait: bool = False):
        """Exclusive flock over bulk imports into this store.

        Entry writes are individually atomic, but a bulk import is a
        long sequence of shard writes: two concurrent imports interleave
        their ``_find_entry_file`` existence probes and both report
        entries as "new", and a reader walking shards mid-import sees a
        half-merged store with a stale index.  The flock makes bulk
        imports mutually exclusive; with ``wait=False`` a held lock
        raises :class:`StoreLockedError` instead of blocking.  On
        platforms without ``fcntl`` the guard degrades to unlocked
        (single-user platforms; the CI fleet is POSIX).
        """
        if fcntl is None:
            yield
            return
        handle = open(self.import_lock_path, "a+")
        try:
            flags = fcntl.LOCK_EX | (0 if wait else fcntl.LOCK_NB)
            try:
                fcntl.flock(handle, flags)
            except OSError:
                raise StoreLockedError(
                    f"another process is importing into {self.path} "
                    f"(lock: {self.import_lock_path}); retry or pass --wait"
                ) from None
            try:
                yield
            finally:
                fcntl.flock(handle, fcntl.LOCK_UN)
        finally:
            handle.close()

    def import_archive(self, archive_path: str, wait: bool = False) -> int:
        """Merge entries from an exported archive; returns how many were
        new.  Existing digests win (they are identical by construction);
        member names are validated so a hostile archive cannot escape
        the store directory.

        Holds the store's :meth:`import_lock` for the duration — a
        second importer either blocks (``wait=True``) or gets
        :class:`StoreLockedError` — so concurrent bulk imports cannot
        interleave their shard scans.
        """
        with self.import_lock(wait=wait):
            return self._import_archive_locked(archive_path)

    # (digest, suffix) parsers for archive member names.  Only these
    # shapes are ever extracted; anything else in a tarball is ignored.
    _MEMBER_SUFFIXES = (".cert.json.gz", ".cert.json", ".json")

    @classmethod
    def _parse_member(cls, name: str) -> tuple[str, str] | None:
        parts = name.split("/")
        if len(parts) != 2:
            return None
        for suffix in cls._MEMBER_SUFFIXES:
            if parts[1].endswith(suffix):
                digest = parts[1][: -len(suffix)]
                if _DIGEST_RE.match(digest) and parts[0] == digest[:2]:
                    return digest, suffix
                return None
        return None

    def _import_archive_locked(self, archive_path: str) -> int:
        imported = 0
        with tarfile.open(archive_path, "r:gz") as tar:
            for member in tar.getmembers():
                if not member.isfile():
                    continue
                parsed = self._parse_member(member.name)
                if parsed is None:
                    continue
                digest, suffix = parsed
                is_cert = suffix != ".json"
                if is_cert:
                    if self._find_cert_file(digest) is not None:
                        continue
                else:
                    if self._find_entry_file(digest) is not None:
                        continue
                handle = tar.extractfile(member)
                if handle is None:
                    continue
                payload = handle.read()
                try:
                    raw = gzip.decompress(payload) if suffix.endswith(".gz") else payload
                    json.loads(raw)
                except (OSError, ValueError):
                    continue
                if is_cert:
                    target = self._cert_path(digest) + (".gz" if suffix.endswith(".gz") else "")
                else:
                    target = self._entry_path(digest)
                if _atomic_write(target, payload) and not is_cert:
                    imported += 1
        return imported


# ---------------------------------------------------------------------------
# Factory


def open_store(path: str, remote_url: str | None = None) -> VerdictStore:
    """Open ``path`` as a verdict store, remote-tiered when configured.

    With ``remote_url`` (or ``REPRO_REMOTE_STORE`` in the environment)
    set, returns a :class:`~repro.core.remote.RemoteVerdictStore` whose
    lookups read through to the shared HTTP store and whose writes
    spool back to it; otherwise a plain local :class:`VerdictStore`.
    This is the one switch point the runner and serve daemon use, so
    every caller gains the remote tier from the environment alone.
    """
    from .remote import RemoteVerdictStore, remote_store_url

    url = remote_url if remote_url is not None else remote_store_url()
    if url:
        return RemoteVerdictStore(path, url)
    return VerdictStore(path)


# ---------------------------------------------------------------------------
# CLI


def main(argv=None) -> int:
    """Entry point for ``python -m repro.core.store``."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="python -m repro.core.store",
        description="Inspect and share a content-addressed verdict store.",
    )
    parser.add_argument(
        "--store",
        default=DEFAULT_STORE_DIR,
        help=f"store directory (default: $REPRO_CACHE_DIR or {DEFAULT_STORE_DIR})",
    )
    sub = parser.add_subparsers(dest="cmd", required=True)
    sub.add_parser("stats", help="entry counts, bytes, verdict breakdown")
    sub.add_parser("index", help="rebuild index.json")
    gc_p = sub.add_parser("gc", help="collect old/overflow entries")
    gc_p.add_argument("--max-age-h", type=float, default=None, help="drop entries older than H hours")
    gc_p.add_argument("--keep", type=int, default=None, help="keep only the N newest entries")
    exp = sub.add_parser("export", help="write all entries to a .tar.gz archive")
    exp.add_argument("archive")
    imp = sub.add_parser("import", help="merge entries from an exported archive")
    imp.add_argument("archive")
    imp.add_argument(
        "--wait",
        action="store_true",
        help="block until a concurrent import releases the store lock "
        "(default: refuse with exit code 3)",
    )
    srv = sub.add_parser("serve", help="expose the store over HTTP")
    srv.add_argument("--host", default="127.0.0.1")
    srv.add_argument("--port", type=int, default=0, help="0 picks a free port")
    srv.add_argument("--verbose", action="store_true", help="log every request")
    flush = sub.add_parser(
        "flush", help="synchronously push the remote write-back spool"
    )
    flush.add_argument(
        "--remote",
        default=None,
        help="store server URL (default: $REPRO_REMOTE_STORE)",
    )
    args = parser.parse_args(argv)

    store = VerdictStore(args.store)
    if args.cmd == "stats":
        print(json.dumps(store.summary(), indent=2))
    elif args.cmd == "index":
        index = store.write_index()
        print(f"indexed {index['entries']} entries -> {store.index_path}")
    elif args.cmd == "gc":
        if args.max_age_h is None and args.keep is None:
            print("gc: nothing to do (pass --max-age-h and/or --keep)")
            return 2
        max_age_s = args.max_age_h * 3600.0 if args.max_age_h is not None else None
        removed = store.gc(max_age_s=max_age_s, keep=args.keep)
        print(f"collected {removed} entries; {store.summary()['entries']} remain")
        _report_spool(store, "gc")
    elif args.cmd == "export":
        try:
            count = store.export_archive(args.archive)
        except OSError as exc:
            print(f"export: cannot write {args.archive}: {exc}", file=sys.stderr)
            return 1
        print(f"exported {count} entries -> {args.archive}")
        _report_spool(store, "export")
    elif args.cmd == "import":
        try:
            count = store.import_archive(args.archive, wait=args.wait)
        except StoreLockedError as exc:
            print(f"import: {exc}", file=sys.stderr)
            return 3
        except (OSError, tarfile.TarError) as exc:
            print(f"import: cannot read {args.archive}: {exc}", file=sys.stderr)
            return 1
        print(f"imported {count} new entries into {store.path}")
        _report_spool(store, "import")
    elif args.cmd == "serve":
        from .remote import StoreServer

        server = StoreServer(
            args.store, host=args.host, port=args.port, verbose=args.verbose, collect=True
        )
        print(f"store serving on {server.url}", flush=True)
        try:
            server.serve_forever()
        except KeyboardInterrupt:
            pass
        finally:
            server.close()
    elif args.cmd == "flush":
        from .remote import RemoteVerdictStore, remote_store_url

        url = args.remote if args.remote is not None else remote_store_url()
        if not url:
            print(
                "flush: no remote configured (pass --remote or set "
                "REPRO_REMOTE_STORE)",
                file=sys.stderr,
            )
            return 2
        remote_store = RemoteVerdictStore(args.store, url, async_flush=False)
        outcome = remote_store.flush_spool()
        print(
            f"flushed {outcome['flushed']} spooled entries to {url}; "
            f"{outcome['pending']} pending, {outcome['errors']} errors"
        )
        if outcome["pending"]:
            return 1
    return 0


def _report_spool(store: VerdictStore, verb: str) -> None:
    """Surface any write-back backlog after a store-mutating walk, so an
    interrupted remote flush is visible instead of silently skipped."""
    pending = store.spool_pending()
    if pending:
        print(
            f"{verb}: {len(pending)} entries still spooled for remote "
            f"write-back (run `python -m repro.core.store flush` to push them)"
        )


if __name__ == "__main__":
    raise SystemExit(main())
