"""Process hygiene: what a run must not leave behind.

The benchmark starts no child process (thread executors only, an
in-process TCP server), so at exit the only live thread must be the
main thread, ``multiprocessing`` must report no children, and no
socket this process holds may be listening.
"""

from __future__ import annotations

import multiprocessing
import os
import threading
from typing import List


def _listening_inodes() -> set:
    """Inodes of listening TCP sockets in this network namespace."""
    found = set()
    for table in ("/proc/net/tcp", "/proc/net/tcp6"):
        try:
            with open(table) as fh:
                next(fh, None)
                for line in fh:
                    cols = line.split()
                    if len(cols) > 9 and cols[3] == "0A":  # TCP_LISTEN
                        found.add(cols[9])
        except OSError:
            continue
    return found


def _own_socket_inodes() -> set:
    inodes = set()
    try:
        fds = os.listdir("/proc/self/fd")
    except OSError:
        return inodes
    for fd in fds:
        try:
            target = os.readlink(f"/proc/self/fd/{fd}")
        except OSError:
            continue
        if target.startswith("socket:["):
            inodes.add(target[len("socket:["):-1])
    return inodes


def problems() -> List[str]:
    """Everything still alive that should not be (empty when clean)."""
    out = []
    children = multiprocessing.active_children()
    if children:
        out.append(f"child processes alive: {children}")
    others = [t for t in threading.enumerate()
              if t is not threading.main_thread()]
    if others:
        out.append("threads alive: " + ", ".join(t.name for t in others))
    listening = _own_socket_inodes() & _listening_inodes()
    if listening:
        out.append(f"listening sockets open: {len(listening)}")
    return out
