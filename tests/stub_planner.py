#!/usr/bin/env python3
"""Wire-protocol stub planner used by the tests.

Reads newline-delimited JSON requests on stdin and answers one line per
request. The first argv selects the behavior:

    fetch           respond with a valid two-step fetch plan
    malformed       respond without a steps field
    unknown-action  respond with an action outside the catalog
    overflow        respond with an effect whose tick is 1e400
    error           respond with an error object
    timeout         never respond
    partial         write the start of a response, then stall mid-line

An optional second argv is a path the stub writes its pid to on start.
"""

import json
import os
import sys
import time

mode = sys.argv[1] if len(sys.argv) > 1 else "fetch"
if len(sys.argv) > 2:
    with open(sys.argv[2], "w") as fh:
        fh.write(str(os.getpid()))

for line in sys.stdin:
    line = line.strip()
    if not line:
        continue
    request = json.loads(line)
    if mode == "fetch":
        params = request["task"]["params"]
        response = {
            "steps": [
                {"action": "PickUp", "args": [params["object"]], "effects": []},
                {"action": "PlaceOn", "args": [params["object"], params["to"]], "effects": []},
            ]
        }
    elif mode == "malformed":
        response = {"plan": "trust me"}
    elif mode == "unknown-action":
        response = {"steps": [{"action": "Fly", "args": ["north"]}]}
    elif mode == "overflow":
        # json.dumps cannot write 1e400, which Python's json reads as inf
        sys.stdout.write('{"steps": [{"action": "Wait", "args": [], '
                         '"effects": [["robot1", "has_state", "idle", 1.0, 1e400]]}]}\n')
        sys.stdout.flush()
        continue
    elif mode == "error":
        response = {"error": "planner exploded"}
    elif mode == "timeout":
        time.sleep(3600)
        response = {"steps": []}
    elif mode == "partial":
        sys.stdout.write('{"steps": [')
        sys.stdout.flush()
        time.sleep(3600)
        response = {"steps": []}
    else:
        response = {"error": f"unknown stub mode {mode}"}
    sys.stdout.write(json.dumps(response) + "\n")
    sys.stdout.flush()
