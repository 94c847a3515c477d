(** Native execution of emitted C: compile (through the binary cache),
    run supervised in the program's data directory, and parse the
    printed result protocol back into the value the interpreter would
    have returned.

    The generated [main] (see {!Cir.Emit} harness mode) prints
    ["__mm_result ..."] lines using the runtime's result protocol plus a
    final ["__mm_live N"] line, so a native run round-trips into exactly
    the shape [mmc run] prints — the differential suite compares the two
    bit-for-bit.

    Abnormal exits are triaged rather than reported as bare codes:

    - ["__mm_fault <span_id> <span|-> <message>"] on stdout is the
      runtime's structured last gasp — printed by a tripped [--guards]
      check before [_exit(71)] and by an armed [MM_FAILPOINTS] failpoint
      before [abort()];
    - a fatal signal makes the runtime's handler write the innermost
      breadcrumb span to an [mm_crash.txt] sidecar, read back here so
      even a SIGSEGV renders a caret at the faulting source span;
    - the supervisor ({!Supervise}) distinguishes exit codes, signal
      deaths and deadline kills. *)

module S = Runtime.Scalar
module Nd = Runtime.Ndarray

type value =
  | RVoid
  | RNull
  | RScal of S.t
  | RMat of Nd.t
  | RTuple of value array

(* Renders identically to [Interp.Eval.pp_value] so `mmc exec` output is
   textually interchangeable with `mmc run`. *)
let rec pp_value ppf = function
  | RVoid -> Fmt.string ppf "void"
  | RNull -> Fmt.string ppf "NULL"
  | RScal s -> S.pp ppf s
  | RMat m -> Nd.pp ppf m
  | RTuple vs ->
      Fmt.pf ppf "(%a)" (Fmt.array ~sep:(Fmt.any ", ") pp_value) vs

type fault = { f_span : Support.Pos.span option; f_message : string }
(** A structured [__mm_fault] line parsed back from the binary's stdout. *)

type error =
  | Toolchain_error of Toolchain.error
  | Run_failed of { exit_code : int; stderr_text : string }
  | Run_signaled of {
      signal : int;  (** POSIX signal number *)
      signal_name : string;
      stderr_text : string;
      fault : fault option;  (** last-gasp [__mm_fault], if printed *)
      crash_span : Support.Pos.span option;
          (** innermost breadcrumb from the mm_crash.txt sidecar *)
    }
  | Run_timeout of { timeout_s : float; stderr_text : string }
  | Guard_fault of fault  (** a [--guards] check tripped (exit 71) *)
  | Bad_output of { message : string; offset : int option }
      (** result protocol unparsable; [offset] is the byte position of
          the offending stdout line *)

let last_stderr_line s =
  List.fold_left
    (fun acc l -> if String.trim l = "" then acc else Some (String.trim l))
    None
    (String.split_on_char '\n' s)

let describe_error = function
  | Toolchain_error e -> Toolchain.describe_error e
  | Run_failed { exit_code; stderr_text } -> (
      if exit_code >= 128 then
        (* shell-style status: 128+N means death by signal N *)
        let signal = exit_code - 128 in
        match last_stderr_line stderr_text with
        | Some l ->
            Printf.sprintf "native binary killed by signal %d: %s" signal l
        | None -> Printf.sprintf "native binary killed by signal %d" signal
      else
        match String.trim stderr_text with
        | "" -> Printf.sprintf "native binary exited with code %d" exit_code
        | detail -> detail)
  | Run_signaled { signal; signal_name; stderr_text; fault; crash_span = _ }
    -> (
      match fault with
      | Some f ->
          Printf.sprintf "%s (native binary killed by %s)" f.f_message
            signal_name
      | None -> (
          let hint =
            if signal = 9 then
              " — possibly the --max-bytes address-space cap or the system \
               OOM killer"
            else ""
          in
          match last_stderr_line stderr_text with
          | Some l ->
              Printf.sprintf "native binary killed by %s (signal %d)%s: %s"
                signal_name signal hint l
          | None ->
              Printf.sprintf "native binary killed by %s (signal %d)%s"
                signal_name signal hint))
  | Run_timeout { timeout_s; stderr_text } -> (
      let base =
        Printf.sprintf
          "native binary exceeded the --timeout deadline (%gs) and was killed"
          timeout_s
      in
      match last_stderr_line stderr_text with
      | Some l -> base ^ ": " ^ l
      | None -> base)
  | Guard_fault f -> f.f_message
  | Bad_output { message; offset } -> (
      match offset with
      | Some o ->
          Printf.sprintf "cannot parse native output: %s (at byte offset %d)"
            message o
      | None -> Printf.sprintf "cannot parse native output: %s" message)

type outcome = {
  value : value;  (** the entry function's result *)
  live : int;  (** allocations still live at exit (leak parity check) *)
  exe : string;  (** the cached binary that ran *)
  from_cache : bool;  (** true iff compilation was skipped *)
  profile_json : string option;
      (** raw text of the mm_profile.json sidecar an instrumented binary
          dumped into the data directory; [None] for plain runs *)
}

(* --- __mm_fault / span parsing ------------------------------------------ *)

let split_ws s =
  String.split_on_char ' ' s |> List.filter (fun t -> t <> "")

(* Inverse of [Support.Pos.span_to_string]: "L:C-C2" (same line) or
   "L1:C1-L2:C2".  Byte offsets are not transported, but [Pos.equal] (and
   so the caret renderer's empty-span test) compares offsets only, so a
   non-degenerate span gets synthetic ordered offsets; line/col carry the
   real location. *)
let parse_span_string s =
  let pos_of t =
    match String.split_on_char ':' t with
    | [ l; c ] -> (
        match (int_of_string_opt l, int_of_string_opt c) with
        | Some line, Some col when line >= 1 && col >= 1 ->
            Some { Support.Pos.line; col; offset = 0 }
        | _ -> None)
    | _ -> None
  in
  let span left right =
    let degenerate =
      left.Support.Pos.line = right.Support.Pos.line
      && left.Support.Pos.col = right.Support.Pos.col
    in
    Some
      {
        Support.Pos.left;
        right = (if degenerate then right else { right with offset = 1 });
      }
  in
  match String.split_on_char '-' s with
  | [ a; b ] -> (
      match pos_of a with
      | None -> None
      | Some left -> (
          match pos_of b with
          | Some right -> span left right
          | None -> (
              match int_of_string_opt b with
              | Some col when col >= 1 -> span left { left with col }
              | _ -> None)))
  | _ -> None

let is_prefix ~prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

(** First [__mm_fault] line in [text], parsed.  The runtime prints at
    most one (it dies immediately after), but a fault interleaved with
    result lines still resolves. *)
let scan_fault text =
  String.split_on_char '\n' text
  |> List.find_map (fun l ->
         if not (is_prefix ~prefix:"__mm_fault " l) then None
         else
           match split_ws l with
           | "__mm_fault" :: _id :: span :: rest ->
               let f_span =
                 if span = "-" then None else parse_span_string span
               in
               Some { f_span; f_message = String.concat " " rest }
           | _ -> None)

(* --- result-protocol parsing ------------------------------------------- *)

exception Parse of string

let parse_fail fmt = Printf.ksprintf (fun m -> raise (Parse m)) fmt

let parse_float_bits tok =
  match Int64.of_string_opt tok with
  | Some bits -> Int64.float_of_bits bits
  | None -> parse_fail "bad float bits %S" tok

type cursor = {
  mutable rest : (string * int) list;  (** remaining (line, byte offset) *)
  mutable off : int;  (** offset of the line last consumed *)
}

let next_line cur =
  match cur.rest with
  | [] -> parse_fail "output ended mid-result"
  | (l, o) :: rest ->
      cur.off <- o;
      cur.rest <- rest;
      l

(* A hard ceiling on tuple arities: keeps a corrupted count from turning
   into a giant allocation before the parse error surfaces. *)
let max_tuple_fields = 4096

let rec parse_result cur : value =
  let l = next_line cur in
  match split_ws l with
  | [ "__mm_result"; "int"; v ] -> (
      match int_of_string_opt v with
      | Some i -> RScal (S.I i)
      | None -> parse_fail "bad int %S" v)
  | [ "__mm_result"; "float"; v ] -> RScal (S.F (parse_float_bits v))
  | [ "__mm_result"; "bool"; v ] -> RScal (S.B (v <> "0"))
  | [ "__mm_result"; "void" ] -> RVoid
  | [ "__mm_result"; "null" ] -> RNull
  | [ "__mm_result"; "tuple"; n ] -> (
      match int_of_string_opt n with
      | Some n when n >= 0 && n <= max_tuple_fields ->
          RTuple (Array.init n (fun _ -> parse_result cur))
      | _ -> parse_fail "bad tuple arity %S" n)
  | "__mm_result" :: "mat" :: kind :: rank :: dims -> (
      let rank =
        match int_of_string_opt rank with
        | Some r when r >= 0 -> r
        | _ -> parse_fail "bad matrix rank %S" rank
      in
      if List.length dims <> rank then
        parse_fail "matrix rank %d but %d extents" rank (List.length dims);
      let shape =
        Array.of_list
          (List.map
             (fun d ->
               match int_of_string_opt d with
               | Some e when e >= 0 -> e
               | _ -> parse_fail "bad extent %S" d)
             dims)
      in
      let data = next_line cur in
      match split_ws data with
      | "__mm_data" :: elems -> (
          let n = Array.fold_left ( * ) 1 shape in
          if List.length elems <> n then
            parse_fail "matrix with %d elements but %d data tokens" n
              (List.length elems);
          let elems = Array.of_list elems in
          match kind with
          | "f" ->
              RMat
                (Nd.of_float_array shape (Array.map parse_float_bits elems))
          | "i" ->
              RMat
                (Nd.of_int_array shape
                   (Array.map
                      (fun t ->
                        match int_of_string_opt t with
                        | Some i -> i
                        | None -> parse_fail "bad int element %S" t)
                      elems))
          | "b" -> RMat (Nd.of_bool_array shape (Array.map (( <> ) "0") elems))
          | k -> parse_fail "unknown matrix kind %S" k)
      | _ -> parse_fail "expected __mm_data line, got %S" data)
  | [ "__mm_result" ] | "__mm_result" :: _ ->
      parse_fail "truncated result line %S" l
  | _ -> parse_fail "unexpected result line %S" l

(* Split [text] into lines tagged with the byte offset each starts at,
   so protocol errors can name the position of the offending line. *)
let lines_with_offsets text =
  let n = String.length text in
  let rec go start acc =
    if start >= n then List.rev acc
    else
      match String.index_from_opt text start '\n' with
      | Some i -> go (i + 1) ((String.sub text start (i - start), start) :: acc)
      | None -> List.rev ((String.sub text start (n - start), start) :: acc)
  in
  go 0 []

(** Parse the binary's stdout into (value, live count).  Total: every
    malformation — truncated lines, interleaved garbage, corrupt counts —
    comes back as [Bad_output] with the byte offset of the bad line,
    never as an OCaml exception. *)
let parse_output text : (value * int, error) result =
  (* The program itself prints nothing on stdout; tolerate stray lines
     by keeping only protocol-marked ones.  __mm_fault lines are the
     fault channel, scanned separately. *)
  let protocol =
    List.filter
      (fun (l, _) ->
        is_prefix ~prefix:"__mm_" l && not (is_prefix ~prefix:"__mm_fault" l))
      (lines_with_offsets text)
  in
  match protocol with
  | [] ->
      Error
        (Bad_output
           { message = "no __mm_result line in program output"; offset = None })
  | _ -> (
      let cur = { rest = protocol; off = 0 } in
      let bad message = Error (Bad_output { message; offset = Some cur.off }) in
      match parse_result cur with
      | exception Parse m -> bad m
      | exception e ->
          bad (Printf.sprintf "internal parse failure: %s" (Printexc.to_string e))
      | value -> (
          match cur.rest with
          | [ (live_line, o) ] -> (
              cur.off <- o;
              match split_ws live_line with
              | [ "__mm_live"; n ] -> (
                  match int_of_string_opt n with
                  | Some live -> Ok (value, live)
                  | None -> bad "bad __mm_live count")
              | _ -> bad "missing __mm_live trailer")
          | [] -> bad "missing __mm_live trailer"
          | (l, o) :: _ ->
              cur.off <- o;
              bad (Printf.sprintf "trailing protocol line %S" l)))

(* --- compile + run ------------------------------------------------------ *)

let rec mkdir_p dir =
  if dir <> "" && dir <> "." && dir <> "/" && not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Sys.mkdir dir 0o755 with Sys_error _ -> ()
  end

let keep_c_sources ~keep_c ~instrument c_text =
  Option.iter
    (fun path ->
      let dir = Filename.dirname path in
      mkdir_p dir;
      let write p text =
        Out_channel.with_open_text p (fun oc ->
            Out_channel.output_string oc text)
      in
      write path c_text;
      write (Filename.concat dir "mm_runtime.h") Runtime_c.header;
      write (Filename.concat dir "mm_runtime.c") Runtime_c.impl;
      if instrument then begin
        write (Filename.concat dir "mm_prof.h") Runtime_c.prof_header;
        write (Filename.concat dir "mm_prof.c") Runtime_c.prof_impl
      end)
    keep_c

(* The instrumented binary dumps its profile as a file (not stdout: the
   result-protocol parser owns stdout) in its working directory, which
   [run] sets to the data dir. *)
let sidecar_name = "mm_profile.json"

(* The runtime's fatal-signal handler leaves the innermost breadcrumb
   span here (see mm_runtime.c); one line, Pos.span_to_string format. *)
let crash_sidecar_name = "mm_crash.txt"

let read_crash_span ~dir =
  let path = Filename.concat dir crash_sidecar_name in
  if not (Sys.file_exists path) then None
  else
    match In_channel.with_open_bin path In_channel.input_all with
    | text -> (
        match String.split_on_char '\n' (String.trim text) with
        | line :: _ -> parse_span_string (String.trim line)
        | [] -> None)
    | exception Sys_error _ -> None

let remove_if_exists path =
  if Sys.file_exists path then
    try Sys.remove path with Sys_error _ -> ()

(** [run ?cc ?cflags ?cache ?cache_dir ?keep_c ?instrument ?threads
    ?sanitize ?failpoints ?timeout_s ?max_bytes ~dir c_text] — the whole
    native path: hit the binary cache, or else probe the toolchain
    (including [-fsanitize] support when [sanitize] is given) and fill
    it (see {!Toolchain} for why a hit needs no probe), execute
    supervised in [dir] (where readMatrix/writeMatrix files live) with
    [OMP_NUM_THREADS=threads], and parse the result protocol.

    [failpoints] is an MM_FAILPOINTS spec armed in the child's
    environment ([Some ""] explicitly disarms an inherited spec);
    [timeout_s]/[max_bytes] become the supervisor's wall-clock deadline
    and address-space cap.  With [instrument] the profiling runtime is
    compiled in (under its own cache key) and the binary's
    mm_profile.json sidecar comes back in [outcome.profile_json].
    The lookup, probe, compile and run legs are wrapped in telemetry
    spans ([cache.lookup], [native.probe], [native.compile],
    [native.run]); compile and run are also exported as ns and ms
    gauges; signal deaths and deadline kills export [native.signal] /
    [native.timeout]. *)
let run ?cc ?(cflags = []) ?(cache = true) ?(cache_dir = Cache.default_dir)
    ?keep_c ?(instrument = false) ?(threads = 1) ?sanitize ?failpoints
    ?timeout_s ?max_bytes ?pipeline ~dir (c_text : string) :
    (outcome, error) result =
  let span name f = Support.Telemetry.with_span ~phase:"native" name f in
  let key tc = Cache.key ~toolchain:tc ~instrument ?pipeline c_text in
  let find k =
    if cache then span "cache.lookup" (fun () -> Cache.find ~dir:cache_dir k)
    else None
  in
  (* A hit under the toolchain a passing OpenMP probe returns proves that
     probe would pass, so it stands in for it; a miss probes, then looks
     up again only if the probed toolchain keys a different slot. *)
  let resolved =
    let assumed = Toolchain.with_openmp ?cc ~cflags ?sanitize () in
    let k = key assumed in
    match find k with
    | Some exe -> Ok (assumed, k, Some exe)
    | None -> (
        match
          span "native.probe" (fun () ->
              Toolchain.probe ?cc ~cflags ?sanitize ())
        with
        | Error e -> Error (Toolchain_error e)
        | Ok tc ->
            let k' = key tc in
            Ok (tc, k', if k' = k then None else find k'))
  in
  match resolved with
  | Error e -> Error e
  | Ok (tc, k, cached) -> (
      Support.Telemetry.set_gauge "native.openmp" (if tc.openmp then 1. else 0.);
      keep_c_sources ~keep_c ~instrument c_text;
      if cache then ignore (Cache.tally cached);
      let compiled =
        match cached with
        | Some exe -> Ok (exe, true)
        | None ->
            span "native.compile" (fun () ->
                let c_files =
                  Cache.write_sources ~dir:cache_dir ~k ~instrument c_text
                in
                let exe = Cache.exe_path ~dir:cache_dir k in
                let t0 = Support.Telemetry.now_ns () in
                match Toolchain.compile tc ~c_files ~out:exe with
                | Ok () ->
                    let ns = Support.Telemetry.now_ns () - t0 in
                    Support.Telemetry.set_gauge "native.compile_ns"
                      (float_of_int ns);
                    Support.Telemetry.set_gauge "native.compile_ms"
                      (float_of_int ns /. 1e6);
                    Ok (exe, false)
                | Error e -> Error (Toolchain_error e))
      in
      match compiled with
      | Error e -> Error e
      | Ok (exe, from_cache) -> (
          let out = Filename.temp_file "mmc_exec" ".out" in
          let err = Filename.temp_file "mmc_exec" ".err" in
          (* Run with cwd = data dir so matrix paths resolve exactly like
             the interpreter's virtual filesystem rooted at [dir]. *)
          let abs_exe =
            if Filename.is_relative exe then
              Filename.concat (Sys.getcwd ()) exe
            else exe
          in
          let sidecar = Filename.concat dir sidecar_name in
          if instrument then
            (* a stale sidecar from an earlier run must not be read back *)
            remove_if_exists sidecar;
          remove_if_exists (Filename.concat dir crash_sidecar_name);
          let env =
            [ ("OMP_NUM_THREADS", string_of_int (max 1 threads)) ]
            @ (match failpoints with
              | Some spec -> [ ("MM_FAILPOINTS", spec) ]
              | None -> [])
            @
            (* mm programs intentionally exit with live allocations (the
               __mm_live leak-parity check observes them); ASan's leak
               detector would turn every run into a failure *)
            match sanitize with
            | Some "address" -> [ ("ASAN_OPTIONS", "detect_leaks=0") ]
            | _ -> []
          in
          let status =
            span "native.run" (fun () ->
                let t0 = Support.Telemetry.now_ns () in
                let status =
                  Supervise.run ~env ?timeout_s ?max_bytes ~dir
                    ~stdout_file:out ~stderr_file:err abs_exe
                in
                let ns = Support.Telemetry.now_ns () - t0 in
                Support.Telemetry.set_gauge "native.run_ns" (float_of_int ns);
                Support.Telemetry.set_gauge "native.run_ms"
                  (float_of_int ns /. 1e6);
                status)
          in
          let stdout_text = In_channel.with_open_bin out In_channel.input_all in
          let stderr_text = In_channel.with_open_bin err In_channel.input_all in
          List.iter
            (fun f -> try Sys.remove f with Sys_error _ -> ())
            [ out; err ];
          match status with
          | Supervise.Timed_out { after_s } ->
              Support.Telemetry.set_gauge "native.timeout" 1.;
              Error (Run_timeout { timeout_s = after_s; stderr_text })
          | Supervise.Signaled { signal; name } ->
              Support.Telemetry.set_gauge "native.signal"
                (float_of_int signal);
              Error
                (Run_signaled
                   {
                     signal;
                     signal_name = name;
                     stderr_text;
                     fault = scan_fault stdout_text;
                     crash_span = read_crash_span ~dir;
                   })
          | Supervise.Exited 71 -> (
              (* the guard runtime's dedicated exit: a structured fault
                 line must be on stdout *)
              match scan_fault stdout_text with
              | Some f -> Error (Guard_fault f)
              | None -> Error (Run_failed { exit_code = 71; stderr_text }))
          | Supervise.Exited code when code <> 0 ->
              Error (Run_failed { exit_code = code; stderr_text })
          | Supervise.Exited _ -> (
              match parse_output stdout_text with
              | Error e -> Error e
              | Ok (value, live) ->
                  let profile_json =
                    if instrument && Sys.file_exists sidecar then
                      Some
                        (In_channel.with_open_bin sidecar In_channel.input_all)
                    else None
                  in
                  Ok { value; live; exe; from_cache; profile_json })))
