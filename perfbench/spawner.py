"""Start the benchmark's commands from a small process and report their usage.

Usage: python3 -S perfbench/spawner.py FD

Linux starts a new program's maximum RSS from the peak RSS of the process
that spawned it, so commands started straight from the benchmark would
report the benchmark's own memory when theirs is smaller.  This process
stays small.  Each request on the SOCK_SEQPACKET socket FD is an argv as
JSON, with the write end of the command's stdout pipe attached.  The reply
is [exit code, user + system CPU seconds, maximum RSS in KiB] of the command
and every descendant it waited for.  An empty request ends the process.
"""

import json
import os
import socket
import sys


def main() -> None:
    sock = socket.socket(fileno=int(sys.argv[1]))
    os.set_inheritable(sock.fileno(), False)
    while True:
        msg, fds, _, _ = socket.recv_fds(sock, 1 << 16, 1)
        if not msg:
            return
        argv = json.loads(msg)
        try:
            pid = os.posix_spawn(argv[0], argv, os.environ, file_actions=[(os.POSIX_SPAWN_DUP2, fds[0], 1)])
        except OSError:
            pid = None
        finally:
            os.close(fds[0])  # the command holds the only write end now
        if pid is None:
            reply = [127, 0.0, 0]
        else:
            _, status, usage = os.wait4(pid, 0)
            reply = [os.waitstatus_to_exitcode(status), usage.ru_utime + usage.ru_stime, usage.ru_maxrss]
        sock.send(json.dumps(reply).encode())


if __name__ == "__main__":
    main()
