"""CAPL sources of the demonstration network (paper Sec. VI).

"In preparation, a simulated CANbus network was implemented in CANoe, with
components (per Figure 2) programmed to exchange simple messages as defined
in our requirements."  These are those components: the VMG and target-ECU
CAPL programs, each both *executable* on the simulated bus
(:class:`repro.capl.interpreter.CaplNode`) and *translatable* by the model extractor.

``ECU_FLAWED_SOURCE`` seeds the defect the security check must find: the ECU
answers a software-inventory request with an update report, violating the
integrity property SP02.
"""

#: Vehicle Mobile Gateway: drives the update session (requirements R01, R03).
VMG_SOURCE = """\
/*@!Encoding:1252*/
// Vehicle Mobile Gateway (VMG) -- X.1373 software update manager.
// Starts the session by requesting a software inventory (R01), then
// requests application of the update module and collects the result.

variables
{
  message reqSw msgReqSw;    // software inventory request       (R01)
  message reqApp msgReqApp;  // apply update module request      (R03)
  msTimer sessionTimer;
  int inventoryDone = 0;
  int updateResult = 0;
}

on start
{
  write("VMG: starting software update session");
  setTimer(sessionTimer, 10);
}

on timer sessionTimer
{
  if (inventoryDone == 0) {
    output(msgReqSw);
  }
}

on message rptSw
{
  inventoryDone = 1;
  write("VMG: inventory received (sw version %d)", this.byte(0));
  msgReqApp.byte(0) = 1;   // update module id
  output(msgReqApp);
}

on message rptUpd
{
  updateResult = this.byte(0);
  write("VMG: update result code %d", updateResult);
}
"""

#: Target ECU: reports inventory and applies updates (requirements R02, R04).
ECU_SOURCE = """\
/*@!Encoding:1252*/
// Target ECU -- X.1373 update module within core functional services.
// Answers software inventory requests with a software list (R02) and
// applies update modules, reporting the result (R03, R04).

variables
{
  message rptSw msgRptSw;    // software diagnosis result        (R02)
  message rptUpd msgRptUpd;  // update application result        (R04)
  int swVersion = 7;
}

on message reqSw
{
  msgRptSw.byte(0) = swVersion;
  output(msgRptSw);
}

on message reqApp
{
  applyUpdate(this.byte(0));
  msgRptUpd.byte(0) = 0;   // 0 = success
  output(msgRptUpd);
}

void applyUpdate(int moduleId)
{
  // package contents are checked and installed here (R03); the install
  // itself has no bus-visible behaviour
  swVersion = swVersion + 1;
}
"""

#: A seeded integrity flaw: the inventory request may be answered with an
#: update report, so the message exchange no longer progresses as specified.
ECU_FLAWED_SOURCE = """\
/*@!Encoding:1252*/
// Target ECU with a seeded integrity defect: a software inventory request
// may be (mis)handled by the update path, answering rptUpd instead of
// rptSw -- the insecure behaviour the refinement check must expose.

variables
{
  message rptSw msgRptSw;
  message rptUpd msgRptUpd;
  int swVersion = 7;
  int corrupted = 0;
}

on message reqSw
{
  if (corrupted == 0) {
    msgRptSw.byte(0) = swVersion;
    output(msgRptSw);
  } else {
    msgRptUpd.byte(0) = 1;    // wrong response type
    output(msgRptUpd);
  }
}

on message reqApp
{
  corrupted = 1;
  msgRptUpd.byte(0) = 0;
  output(msgRptUpd);
}
"""

#: Extended scope (paper Sec. VIII-A): the VMG also talks to an update
#: server with the X.1373 server-side message types.
VMG_EXTENDED_SOURCE = """\
/*@!Encoding:1252*/
// VMG, extended scope: bridges the OEM update server and the target ECU.

variables
{
  message reqSw msgReqSw;
  message reqApp msgReqApp;
  message update_report msgUpdateReport;
  msTimer pollTimer;
  int sessionState = 0;   // 0 idle, 1 diagnosing, 2 updating
}

on start
{
  setTimer(pollTimer, 100);
}

on timer pollTimer
{
  if (sessionState == 0) {
    output(msgReqSw);
    sessionState = 1;
  }
}

on message update
{
  // server pushed an update package: forward an apply request to the ECU
  msgReqApp.byte(0) = this.byte(0);
  output(msgReqApp);
  sessionState = 2;
}

on message rptSw
{
  // diagnosis done; report upstream happens out of scope here
  sessionState = 0;
}

on message rptUpd
{
  msgUpdateReport.byte(0) = this.byte(0);
  output(msgUpdateReport);
  sessionState = 0;
}
"""

#: A UDS-style SecurityAccess gate in front of the OTA download step
#: (paper Sec. V-B: the update session must not expose protected services
#: before authentication).  Deliberately payload-free -- the protocol
#: *order* is the whole state machine: a seed must be requested before a
#: key is accepted, and downloads are served only once unlocked.  The
#: golden learn corpus learns this machine black-box (bounded teacher:
#: the extractor over-approximates the state-dependent branches).
ECU_SECURITY_ACCESS_SOURCE = """\
/*@!Encoding:1252*/
// SecurityAccess-gated download handler: seed -> key -> unlock -> data.

variables
{
  message rspSeed msgRspSeed;   // seed response
  message rspOk msgRspOk;       // key accepted, session unlocked
  message rspErr msgRspErr;     // rejected (no seed / still locked)
  message rspData msgRspData;   // protected download payload
  int seedGiven = 0;
  int unlocked = 0;
}

on message reqSeed
{
  seedGiven = 1;
  output(msgRspSeed);
}

on message sendKey
{
  if (seedGiven == 1) {
    unlocked = 1;
    output(msgRspOk);
  } else {
    output(msgRspErr);
  }
}

on message reqDl
{
  if (unlocked == 1) {
    output(msgRspData);
  } else {
    output(msgRspErr);
  }
}
"""
