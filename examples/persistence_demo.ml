(* Durable persistence: survive a SIGKILL of the whole process.

   The journal survives controller crashes inside one process; this
   demo exercises the on-disk store ([Support.Segment_store]).  Round
   one writes plaintext segments; round two encrypts them at rest
   ([Cryptosim.Atrest]).  Each round: a child process runs a monitored
   deployment with its journal mirrored to disk, records the digest
   vector of its live snapshot, then kills itself with SIGKILL — no
   atexit, no flush, no goodbye.  Segments seal and compaction unlinks
   whole files while it runs.  The parent recovers from the disk bytes
   alone (for the encrypted store: re-deriving the storage key from
   the scenario seed, the key-escrow stand-in) and checks that the
   recovered digest vector matches the child's last-known state
   exactly.

   Run with:  dune exec examples/persistence_demo.exe *)

let config =
  {
    Rvaas.Failover.default_config with
    checkpoint_every = 32;
    auto_compact = true;
  }

let digest_lines snapshot =
  Rvaas.Snapshot.digest_vector snapshot
  |> List.map (fun (sw, d) -> Printf.sprintf "%d:%Lx" sw d)

let write_lines path lines =
  let oc = open_out path in
  List.iter (fun l -> output_string oc (l ^ "\n")) lines;
  flush oc;
  Unix.fsync (Unix.descr_of_out_channel oc);
  close_out oc

let read_lines path =
  let ic = open_in path in
  let rec go acc =
    match input_line ic with
    | line -> go (line :: acc)
    | exception End_of_file ->
      close_in ic;
      List.rev acc
  in
  go []

let topo () = Workload.Topogen.linear Workload.Topogen.default_params 4

let build_scenario ~persist =
  Workload.Scenario.build
    {
      (Workload.Scenario.default_spec (topo ())) with
      polling = Rvaas.Monitor.Periodic 0.02;
      ha = Some config;
      persist;
    }

let child_run ~persist ~digest_path =
  let s = build_scenario ~persist:(Some persist) in
  Workload.Scenario.run s ~until:1.0;
  let ctrl = Workload.Scenario.controller s in
  let log = Rvaas.Journal.log (Rvaas.Failover.journal ctrl) in
  let store = Workload.Scenario.store s in
  let snapshot = Rvaas.Monitor.snapshot (Workload.Scenario.monitor s) in
  write_lines digest_path (digest_lines snapshot);
  Printf.printf
    "child: ran 1 s of monitoring, %d journal entries (%d bytes in %d sealed \
     + 1 active%s segments, %d dropped by compaction)\n\
     child: digest vector written; dying by SIGKILL mid-flight\n%!"
    (Support.Journal.length log)
    (Support.Segment_store.written_bytes store)
    (Support.Segment_store.sealed_count store)
    (if persist.Workload.Scenario.p_encrypt then " encrypted" else "")
    (Support.Segment_store.sealed_deleted store);
  Unix.kill (Unix.getpid ()) Sys.sigkill

(* Recover the store from disk alone.  For an encrypted store the
   parent rebuilds the keypair from the same seed: the key-escrow
   stand-in. *)
let recover (persist : Workload.Scenario.persist) =
  let crypt =
    if persist.p_encrypt then
      let key = Workload.Scenario.storage_key (build_scenario ~persist:None) in
      Some (Cryptosim.Atrest.crypt ~key)
    else None
  in
  Support.Segment_store.recover_from_dir ?crypt persist.p_dir

(* Fork a child, let it die by SIGKILL, recover in the parent. *)
let round ~name ~persist ~digest_path =
  Printf.printf "== %s ==\n%!" name;
  (match Unix.fork () with
  | 0 ->
    child_run ~persist ~digest_path;
    assert false (* SIGKILL does not return *)
  | pid -> (
    let _, status = Unix.waitpid [] pid in
    (match status with
    | Unix.WSIGNALED sg when sg = Sys.sigkill ->
      print_endline "parent: child confirmed dead (SIGKILL)"
    | _ ->
      print_endline "parent: child did not die by SIGKILL — demo broken";
      exit 1);
    match recover persist with
    | Error msg ->
      Printf.printf "parent: recovery failed: %s\n" msg;
      exit 1
    | Ok log ->
      let recovery = Rvaas.Journal.recover log in
      let recovered = digest_lines recovery.Rvaas.Journal.snapshot in
      let expected = read_lines digest_path in
      Printf.printf
        "parent: recovered %d verified entries (generation %d, %d mutations \
         replayed over the last checkpoint)\n"
        (List.length (Support.Journal.valid_prefix log))
        recovery.Rvaas.Journal.generation recovery.Rvaas.Journal.replayed;
      List.iter (fun l -> Printf.printf "  switch %s\n" l) recovered;
      if recovered = expected then
        print_endline "parent: digest vector matches the child's pre-crash state exactly"
      else begin
        print_endline "parent: DIGEST MISMATCH — recovery lost state";
        exit 1
      end))

let rm_rf dir =
  if Sys.file_exists dir && Sys.is_directory dir then begin
    Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
    Unix.rmdir dir
  end

let () =
  let digest_path = Filename.temp_file "rvaas_persist" ".digest" in
  List.iter
    (fun (name, p_encrypt) ->
      let dir = Filename.temp_file "rvaas_segments" "" in
      Sys.remove dir;
      let persist = { Workload.Scenario.p_dir = dir; p_segment_bytes = 2048; p_encrypt } in
      round ~name ~persist ~digest_path;
      rm_rf dir)
    [ ("segmented store, plaintext", false); ("segmented store, encrypted at rest", true) ];
  Sys.remove digest_path
