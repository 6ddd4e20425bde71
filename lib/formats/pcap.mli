(** Classic libpcap file format (the tcpdump/Wireshark on-disk format):
    a 24-byte global header followed by [(16-byte record header, frame
    bytes)] pairs. Written little-endian with the standard magic
    [0xa1b2c3d4] (microsecond timestamps), version 2.4, and linktype 1
    (Ethernet) — readable by any stock tcpdump or Wireshark.

    The writer takes timestamps in integer nanoseconds (the simulator's
    virtual clock) and stores them as the classic format's
    seconds + microseconds pair, so a capture of a deterministic run is
    itself byte-deterministic. The reader parses what the writer emits
    (plus big-endian files, for completeness) and is the round-trip
    validator for the golden capture test.

    Classic pcap has no per-packet annotations (those are pcapng); flow
    ids and link metadata travel in a JSONL sidecar written next to the
    capture (see the [Capture] library). *)

(** One captured record. [len] is the original frame length on the wire;
    [data] holds the stored bytes ([String.length data <= len] when the
    capture truncated at its snaplen). *)
type packet = { ts_sec : int; ts_usec : int; len : int; data : string }

type file = { snaplen : int; linktype : int; packets : packet list }

(** {1 Writing} *)

(** Append the 24-byte global header, linktype Ethernet. [snaplen]
    defaults to 65535. *)
val add_header : ?snaplen:int -> Buffer.t -> unit

(** [add_packet b ~ts_ns ~orig_len data] appends one record, converting
    the virtual-time nanosecond stamp to seconds + microseconds.
    [orig_len] defaults to [String.length data]. *)
val add_packet : Buffer.t -> ts_ns:int -> ?orig_len:int -> string -> unit

(** {1 Reading} *)

(** Parse a classic pcap file (either byte order; microsecond or
    nanosecond magic). [Error] describes the first malformed field. *)
val parse : string -> (file, string) result
