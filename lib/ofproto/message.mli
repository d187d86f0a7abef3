(** Controller ↔ switch messages.

    A faithful (but simplified) model of the OpenFlow 1.3 message
    subset that RVaaS relies on: Packet-In/Packet-Out for in-band
    client interaction, Flow-Mod for configuration, flow-monitor events
    and multipart flow-stats for configuration monitoring (paper §II
    and §IV-A.1). *)

type packet_in_reason = No_match | Action_to_controller

type flow_mod =
  | Add_flow of Flow_entry.spec
  | Delete_flow of { match_ : Match_.t; priority : int option }
  | Delete_by_cookie of int

type monitor_event =
  | Flow_added of Flow_entry.spec
  | Flow_deleted of Flow_entry.spec
  | Flow_modified of Flow_entry.spec

(** Messages sent by a switch to a controller. *)
type to_controller =
  | Packet_in of {
      sw : int;
      in_port : int;
      reason : packet_in_reason;
      header : Hspace.Header.t;
      payload : string;
    }
  | Flow_removed of { sw : int; spec : Flow_entry.spec; reason : [ `Delete | `Hard_timeout ] }
  | Monitor of { sw : int; event : monitor_event }
  | Flow_stats_reply of { sw : int; xid : int; flows : Flow_entry.spec list }
  | Meter_stats_reply of { sw : int; xid : int; meters : (int * Meter.band) list }
  | Echo_reply of { sw : int; xid : int }
  | Barrier_reply of { sw : int; xid : int }
  | Error of { sw : int; code : string }

(** Messages sent by a controller to a switch. *)
type to_switch =
  | Flow_mod of flow_mod
  | Meter_mod of { id : int; band : Meter.band option }
  | Packet_out of { port : int; header : Hspace.Header.t; payload : string }
  | Flow_stats_request of { xid : int }
  | Meter_stats_request of { xid : int }
  | Echo_request of { xid : int }
  | Barrier_request of { xid : int }
