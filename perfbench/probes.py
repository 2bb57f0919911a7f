"""Outside-in layer probes: spans around the public functions of each layer.

Nothing in the program is edited.  :class:`Probes` replaces, for the length
of a traced window, the public functions each layer exposes with thin
wrappers that record a span (layer, start, end, parent span, request id),
then puts every original back.  A layer's *self time* is the time its
spans cover minus the part their child spans cover, computed online with a
span stack, so ``crypto`` excludes the codec calls made inside it and
``agreement`` is ``AgreementReplica.on_message`` minus crypto, codec and
network sends.

Probed functions, by layer:

* ``util.encoding`` -- ``canonical_encode`` / ``estimate_size`` at every
  ``repro`` module attribute bound to them; bytes are attributed to message
  types through ``Message.encoded`` / ``Message.wire_size``;
* ``util.wirecache`` -- ``WireCache.entry_for``, ``WireCacheEntry.materialise``;
* ``crypto`` -- the public methods of ``CryptoProvider``;
  ``crypto.keys`` -- ``Keystore.pair_secret``;
* ``sim`` -- ``Scheduler.step``;  ``net`` -- ``Network.send``/``broadcast``
  and ``RealTimeNetwork.send``;
* node layers (``agreement``, ``core``, ``sharding``, ``multilog``) --
  ``on_message`` of every node class, ``Process.fire_timer``, and the
  handler methods of the agreement replicas' local executors, attributed
  to the package of the object's class;
* ``crypto.pool`` -- a round-trip timer around ``CryptoPool.run`` (an
  awaited call, so it records waits rather than self time).

A target that no longer exists marks its layer absent instead of failing,
so the benchmark outlives refactors that delete a layer.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

#: every layer a span can be attributed to, in report order
LAYERS: Tuple[str, ...] = (
    "util.encoding", "util.wirecache", "crypto", "crypto.keys", "sim", "net",
    "agreement", "core", "sharding", "multilog", "other",
)
_LAYER_INDEX = {name: index for index, name in enumerate(LAYERS)}
_ENCODING = _LAYER_INDEX["util.encoding"]

#: handler methods of the agreement replicas' local executors (message
#: queues and shard/log routers) -- the work they do for a replica belongs
#: to their own package, not to agreement
LOCAL_EXECUTOR_METHODS = (
    "execute_batch", "stage_batch", "on_batch_reply", "on_unknown_message",
    "retry_hint", "on_stable_checkpoint", "sync_to_checkpoint",
)

#: node packages whose classes are imported so every node class is probed
_NODE_MODULES = (
    "repro.core.client", "repro.core.execution", "repro.core.message_queue",
    "repro.agreement.replica", "repro.sharding.client",
    "repro.sharding.execution", "repro.sharding.queue",
    "repro.multilog.client", "repro.multilog.queue",
)

#: spans kept in memory per window; later spans are still aggregated
DEFAULT_SPAN_CAP = 200_000


def layer_of_module(module: str) -> str:
    """``repro.sharding.execution`` -> ``sharding`` (unknown -> ``other``)."""
    parts = module.split(".")
    if len(parts) >= 2 and parts[0] == "repro" and parts[1] in _LAYER_INDEX:
        return parts[1]
    return "other"


def _import(module: str):
    try:
        return importlib.import_module(module)
    except ImportError:
        return None


def _subclasses(cls) -> List[type]:
    found, todo = [], [cls]
    while todo:
        current = todo.pop()
        for sub in current.__subclasses__():
            if sub not in found:
                found.append(sub)
                todo.append(sub)
    return found


class Probes:
    """Installs, records and removes layer spans; the tallies accumulate
    over every window the probes are installed for."""

    def __init__(self, span_cap: int = DEFAULT_SPAN_CAP) -> None:
        self.span_cap = span_cap
        #: layers whose probe targets could not be found in the program
        self.absent: Set[str] = set()
        self.calls = [0] * len(LAYERS)
        self.self_s = [0.0] * len(LAYERS)
        #: canonical bytes encoded (outermost calls) and their split by type
        self.encode_bytes = 0
        self.type_bytes: Dict[str, int] = {}
        #: (span id, layer index, start s, end s, parent id, request id)
        self.spans: List[tuple] = []
        self.spans_dropped = 0
        #: crypto-pool round trips (ms), measured around CryptoPool.run
        self.pool_waits_ms: List[float] = []
        self._stack: List[list] = []
        self._types: List[str] = []
        self._next_id = 0
        self._patches: List[Tuple[Any, str, Any]] = []
        self._layer_cache: Dict[type, int] = {}

    # ------------------------------------------------------------------ #
    # Recording.
    # ------------------------------------------------------------------ #

    def _enter(self, layer: int, request: Any = None) -> list:
        frame = [layer, time.perf_counter(), 0.0, self._next_id,
                 self._stack[-1][3] if self._stack else -1, request]
        self._next_id += 1
        self._stack.append(frame)
        return frame

    def _exit(self, frame: list) -> None:
        end = time.perf_counter()
        stack = self._stack
        stack.pop()
        layer, start, child = frame[0], frame[1], frame[2]
        duration = end - start
        self.calls[layer] += 1
        self.self_s[layer] += duration - child
        if stack:
            stack[-1][2] += duration
        if len(self.spans) < self.span_cap:
            self.spans.append((frame[3], layer, start, end, frame[4], frame[5]))
        else:
            self.spans_dropped += 1

    def _span(self, layer_name: str, fn: Callable) -> Callable:
        layer = _LAYER_INDEX[layer_name]
        enter, exit_ = self._enter, self._exit

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = enter(layer)
            try:
                return fn(*args, **kwargs)
            finally:
                exit_(frame)
        return wrapper

    def _node_span(self, fn: Callable, request_of: Optional[Callable] = None
                   ) -> Callable:
        """A span whose layer is the package of ``type(self)``, so a
        subclass calling ``super()`` stays in its own layer."""
        enter, exit_, cache = self._enter, self._exit, self._layer_cache

        @functools.wraps(fn)
        def wrapper(node, *args, **kwargs):
            cls = type(node)
            layer = cache.get(cls)
            if layer is None:
                layer = cache[cls] = _LAYER_INDEX[layer_of_module(cls.__module__)]
            request = request_of(args) if request_of is not None else None
            frame = enter(layer, request)
            try:
                return fn(node, *args, **kwargs)
            finally:
                exit_(frame)
        return wrapper

    def _encoding_span(self, fn: Callable, returns_size: bool) -> Callable:
        """Codec span: counts outermost calls and attributes their bytes to
        the message type being encoded (nested encodes are its own work)."""
        enter, exit_, stack = self._enter, self._exit, self._stack
        types, type_bytes = self._types, self.type_bytes
        probes = self

        @functools.wraps(fn)
        def wrapper(value, *args, **kwargs):
            if stack and stack[-1][0] == _ENCODING:
                return fn(value, *args, **kwargs)
            frame = enter(_ENCODING)
            try:
                result = fn(value, *args, **kwargs)
            finally:
                exit_(frame)
            size = result if returns_size else len(result)
            kind = value.get("__type__") if type(value) is dict else None
            if kind is None:
                kind = types[-1] if types else "(unattributed)"
            probes.encode_bytes += size
            type_bytes[kind] = type_bytes.get(kind, 0) + size
            return result
        return wrapper

    def _type_context(self, fn: Callable) -> Callable:
        """No span: names the message type for codec calls made inside."""
        types = self._types

        @functools.wraps(fn)
        def wrapper(message, *args, **kwargs):
            types.append(type(message).__name__)
            try:
                return fn(message, *args, **kwargs)
            finally:
                types.pop()
        return wrapper

    def _pool_timer(self, fn: Callable) -> Callable:
        waits = self.pool_waits_ms

        @functools.wraps(fn)
        async def wrapper(*args, **kwargs):
            started = time.perf_counter()
            try:
                return await fn(*args, **kwargs)
            finally:
                waits.append((time.perf_counter() - started) * 1000.0)
        return wrapper

    # ------------------------------------------------------------------ #
    # Installing and removing.
    # ------------------------------------------------------------------ #

    def _patch(self, owner: Any, name: str, wrapper: Callable) -> None:
        original = (owner.__dict__[name] if isinstance(owner, type)
                    else getattr(owner, name))
        wrapper.__perfbench_probe__ = True
        self._patches.append((owner, name, original))
        setattr(owner, name, wrapper)

    def _patch_method(self, cls: type, name: str, make: Callable) -> None:
        if name in cls.__dict__:
            self._patch(cls, name, make(cls.__dict__[name]))

    def _lookup(self, layer: str, module: str, *names: str):
        """Resolve ``module.names[0].names[1]...``; a missing piece marks
        ``layer`` absent and returns None."""
        target = _import(module)
        for name in names:
            target = getattr(target, name, None) if target is not None else None
        if target is None:
            self.absent.add(layer)
        return target

    def install(self) -> None:
        """Wrap every probe target; call :meth:`uninstall` to restore."""
        if self._patches:
            raise RuntimeError("probes are already installed")
        try:
            self._install_codec()
            self._install_classes()
            self._install_nodes()
        except BaseException:
            self.uninstall()
            raise

    def _install_codec(self) -> None:
        encoding = self._lookup("util.encoding", "repro.util.encoding")
        if encoding is not None:
            targets = {}
            for name, returns_size in (("canonical_encode", False),
                                       ("estimate_size", True)):
                original = getattr(encoding, name, None)
                if original is not None:
                    targets[id(original)] = self._encoding_span(original,
                                                                returns_size)
            if not targets:
                self.absent.add("util.encoding")
            for module in [m for name, m in list(sys.modules.items())
                           if name.startswith("repro") and m is not None]:
                for attr, value in list(vars(module).items()):
                    if id(value) in targets and callable(value):
                        self._patch(module, attr, targets[id(value)])
        message = self._lookup("util.encoding", "repro.net.message", "Message")
        if message is not None:
            for name in ("encoded", "wire_size"):
                self._patch_method(message, name, self._type_context)

    def _install_classes(self) -> None:
        for layer, module, cls_name, methods in (
                ("util.wirecache", "repro.util.wirecache", "WireCache",
                 ("entry_for",)),
                ("util.wirecache", "repro.util.wirecache", "WireCacheEntry",
                 ("materialise",)),
                ("crypto.keys", "repro.crypto.keys", "Keystore",
                 ("pair_secret",)),
                ("sim", "repro.sim.scheduler", "Scheduler", ("step",)),
                ("net", "repro.net.network", "Network", ("send", "broadcast")),
                ("net", "repro.runtime.asyncio_rt", "RealTimeNetwork",
                 ("send",))):
            cls = self._lookup(layer, module, cls_name)
            if cls is None:
                continue
            for name in methods:
                if name not in cls.__dict__:
                    self.absent.add(layer)
                    continue
                self._patch_method(cls, name,
                                   lambda fn, layer=layer: self._span(layer, fn))
        provider = self._lookup("crypto", "repro.crypto.provider",
                                "CryptoProvider")
        if provider is not None:
            for name, value in list(vars(provider).items()):
                if (not name.startswith("_") and name != "bind"
                        and callable(value) and not isinstance(value, type)):
                    self._patch(provider, name, self._span("crypto", value))
        pool = self._lookup("crypto.pool", "repro.crypto.pool", "CryptoPool")
        if pool is not None and "run" in pool.__dict__:
            self._patch_method(pool, "run", self._pool_timer)

    def _install_nodes(self) -> None:
        for module in _NODE_MODULES:
            _import(module)
        process = self._lookup("agreement", "repro.sim.process", "Process")
        if process is not None:
            self._patch_method(process, "fire_timer", self._node_span)
            for cls in _subclasses(process):
                self._patch_method(
                    cls, "on_message",
                    lambda fn: self._node_span(fn, request_of=_reply_request))
        local = self._lookup("agreement", "repro.agreement.local",
                             "LocalExecutor")
        if local is not None:
            for cls in _subclasses(local):
                for name in LOCAL_EXECUTOR_METHODS:
                    self._patch_method(cls, name, self._node_span)

    def uninstall(self) -> None:
        """Put every original back, newest patch first."""
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    def patched_attributes(self) -> List[str]:
        """Probe wrappers still reachable from the program (empty after a
        clean :meth:`uninstall`) -- the passivity self-check."""
        leaks = []
        for module_name, module in list(sys.modules.items()):
            if not module_name.startswith("repro") or module is None:
                continue
            for attr, value in list(vars(module).items()):
                if _is_probe(value):
                    leaks.append(f"{module_name}.{attr}")
                elif isinstance(value, type):
                    for name, member in list(vars(value).items()):
                        if _is_probe(member):
                            leaks.append(f"{module_name}.{attr}.{name}")
        return sorted(set(leaks))

    # ------------------------------------------------------------------ #
    # Reading.
    # ------------------------------------------------------------------ #

    def layer_calls(self, layer: str) -> int:
        return self.calls[_LAYER_INDEX[layer]]

    def layer_self_ms(self, layer: str) -> float:
        return self.self_s[_LAYER_INDEX[layer]] * 1000.0

    def top_types(self, count: int = 5) -> List[Tuple[str, int]]:
        """The message types that moved the most canonical bytes."""
        ranked = sorted(self.type_bytes.items(), key=lambda kv: (-kv[1], kv[0]))
        return ranked[:count]

    def write_spans(self, path) -> int:
        """Write the recorded spans as CSV; returns the number written."""
        with open(path, "w", encoding="utf-8") as out:
            out.write("span,layer,start_us,end_us,parent,request\n")
            for span_id, layer, start, end, parent, request in self.spans:
                out.write(f"{span_id},{LAYERS[layer]},{start * 1e6:.1f},"
                          f"{end * 1e6:.1f},{parent},{request or ''}\n")
        return len(self.spans)


def _is_probe(value: Any) -> bool:
    return getattr(value, "__perfbench_probe__", False) is True


def _reply_request(args: tuple) -> Optional[str]:
    """Request id of a client reply being handled (``client:timestamp``)."""
    if len(args) < 2:
        return None
    reply = getattr(args[1], "reply", None)
    client = getattr(reply, "client", None)
    if client is None:
        return None
    return f"{getattr(client, 'name', client)}:{getattr(reply, 'timestamp', '')}"


class LoopLagSampler:
    """Event-loop lag: a benchmark-owned ``call_later`` tick that measures
    how late it fires.  Only ticks while the loop runs; stop before the loop
    idles between drives so pauses are not counted as lag."""

    def __init__(self, loop, interval_s: float = 0.01) -> None:
        self.loop = loop
        self.interval_s = interval_s
        self.lags_ms: List[float] = []
        self._handle = None
        self._due = 0.0

    def start(self) -> None:
        self._due = self.loop.time() + self.interval_s
        self._handle = self.loop.call_at(self._due, self._tick)

    def _tick(self) -> None:
        now = self.loop.time()
        self.lags_ms.append(max(0.0, now - self._due) * 1000.0)
        self._due = now + self.interval_s
        self._handle = self.loop.call_at(self._due, self._tick)

    def stop(self) -> None:
        if self._handle is not None:
            self._handle.cancel()
            self._handle = None
