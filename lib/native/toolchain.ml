(** System C toolchain discovery and compilation for [mmc exec] (§II: the
    emitted plain parallel C is "compiled for execution by a traditional
    compiler").

    {!probe} checks a (cc, flags) configuration with two compiles: first a
    trivial translation unit (is there a working compiler at all?), then
    the same unit under [-fopenmp] (do parallel loops get real OpenMP
    threads, or do the pragmas fall back to sequential execution?).  Its
    verdict is memoised for the process lifetime only, so test suites that
    exec many programs pay for it once per configuration, and nothing is
    stored on disk.

    A process that finds its binary in the cache does not probe at all:
    {!Exec.run} first looks the program up under {!with_openmp}, the
    toolchain a passing probe with OpenMP returns.  A binary in that slot
    was compiled by this compiler with these flags and [-fopenmp], which
    is everything the probe would establish.  Only a miss probes (and then
    compiles), so a compiler without OpenMP, or none at all, is still
    diagnosed exactly as before. *)

type t = {
  cc : string;  (** compiler command, e.g. ["cc"] *)
  cflags : string list;  (** extra user flags, after the defaults *)
  openmp : bool;  (** [-fopenmp] accepted: ParFor pragmas are live *)
  sanitize : string option;
      (** probed [-fsanitize=] mode ("address" / "undefined"), if any *)
}

type error =
  | No_compiler of { cc : string; detail : string }
      (** no working C compiler under this name *)
  | Compile_failed of { cmd : string; output : string }
      (** the generated program failed to compile — an emitter bug *)
  | Sanitizer_unsupported of { cc : string; sanitize : string }
      (** the compiler exists but rejects [-fsanitize=<mode>] *)

let describe_error = function
  | No_compiler { cc; detail } ->
      Printf.sprintf "no working C compiler %S (%s)" cc detail
  | Compile_failed { cmd; output } ->
      Printf.sprintf "C compilation failed: %s\n%s" cmd (String.trim output)
  | Sanitizer_unsupported { cc; sanitize } ->
      Printf.sprintf "%s does not support -fsanitize=%s" cc sanitize

let default_cc () =
  match Sys.getenv_opt "MMC_CC" with Some c when c <> "" -> c | _ -> "cc"

let resolve_cc = function Some c when c <> "" -> c | _ -> default_cc ()

(* Run [cmd], capturing stdout+stderr; returns (exit code, output). *)
let run_command cmd =
  let out = Filename.temp_file "mmc_cc" ".out" in
  let code = Sys.command (Printf.sprintf "%s > %s 2>&1" cmd (Filename.quote out)) in
  let text = In_channel.with_open_bin out In_channel.input_all in
  (try Sys.remove out with Sys_error _ -> ());
  (code, text)

let quote = Filename.quote

(* --- probing ---------------------------------------------------------- *)

let probe_cache : (string, (t, error) result) Hashtbl.t = Hashtbl.create 4

let try_compile ~cc ~flags ~src_text =
  let dir = Filename.temp_file "mmc_probe" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o700;
  let src = Filename.concat dir "probe.c" in
  let exe = Filename.concat dir "probe.exe" in
  Out_channel.with_open_text src (fun oc ->
      Out_channel.output_string oc src_text);
  let cmd =
    Printf.sprintf "%s %s -o %s %s" cc
      (String.concat " " (List.map quote flags))
      (quote exe) (quote src)
  in
  let code, output = run_command cmd in
  List.iter
    (fun f -> try Sys.remove f with Sys_error _ -> ())
    [ src; exe ];
  (try Sys.rmdir dir with Sys_error _ -> ());
  if code = 0 then Ok () else Error (cmd, output)

(* [-fsanitize] builds also want frame pointers and debug info so the
   sanitizer's reports carry usable stacks. *)
let sanitize_flags = function
  | None -> []
  | Some s -> [ "-fsanitize=" ^ s; "-fno-omit-frame-pointer"; "-g" ]

(** [probe ?cc ?cflags ?sanitize ()] — locate a working compiler, decide
    whether OpenMP is available under it, and (when [sanitize] is given)
    verify the compiler links [-fsanitize=<mode>] programs.  Memoised
    per configuration. *)
let probe ?cc ?(cflags = []) ?sanitize () : (t, error) result =
  let cc = resolve_cc cc in
  let key =
    cc ^ "\x00"
    ^ String.concat "\x00" cflags
    ^ "\x01"
    ^ Option.value sanitize ~default:""
  in
  match Hashtbl.find_opt probe_cache key with
  | Some r -> r
  | None ->
      let trivial = "int main(void) { return 0; }\n" in
      let r =
        match try_compile ~cc ~flags:cflags ~src_text:trivial with
        | Error (_, output) ->
            Error
              (No_compiler
                 {
                   cc;
                   detail =
                     (match String.trim output with
                     | "" -> "command failed"
                     | s ->
                         (* first line is enough: "cc: command not found" *)
                         (match String.index_opt s '\n' with
                         | Some i -> String.sub s 0 i
                         | None -> s));
                 })
        | Ok () -> (
            let openmp =
              match
                try_compile ~cc ~flags:("-fopenmp" :: cflags)
                  ~src_text:trivial
              with
              | Ok () -> true
              | Error _ -> false
            in
            match sanitize with
            | None -> Ok { cc; cflags; openmp; sanitize = None }
            | Some s -> (
                match
                  try_compile ~cc
                    ~flags:(sanitize_flags (Some s) @ cflags)
                    ~src_text:trivial
                with
                | Ok () -> Ok { cc; cflags; openmp; sanitize = Some s }
                | Error _ ->
                    Error (Sanitizer_unsupported { cc; sanitize = s })))
      in
      Hashtbl.replace probe_cache key r;
      r

(** [with_openmp ?cc ?cflags ?sanitize ()] — the toolchain {!probe}
    returns for this configuration when the compiler works and accepts
    [-fopenmp] (and [-fsanitize=<mode>], when given), computed without
    running it. *)
let with_openmp ?cc ?(cflags = []) ?sanitize () =
  { cc = resolve_cc cc; cflags; openmp = true; sanitize }

(** The flags a toolchain compiles generated programs with, in command
    order.  Without OpenMP the pragmas are dead text, so the unknown-
    pragma warning is silenced to stay clean under [-Wall].  Sanitizer
    flags participate, which also gives sanitized builds their own
    binary-cache slot (the cache key digests the full flag list). *)
let flags t =
  [ "-O2"; "-Wall" ]
  @ sanitize_flags t.sanitize
  @ (if t.openmp then [ "-fopenmp" ] else [ "-Wno-unknown-pragmas" ])
  @ t.cflags

(** [compile t ~c_files ~out] — compile and link [c_files] into [out].
    Returns the full command on failure so the driver's diagnostic shows
    exactly what was attempted. *)
let compile t ~c_files ~out : (unit, error) result =
  let cmd =
    Printf.sprintf "%s %s -o %s %s" t.cc
      (String.concat " " (List.map quote (flags t)))
      (quote out)
      (String.concat " " (List.map quote c_files))
  in
  let code, output = run_command cmd in
  if code = 0 then Ok () else Error (Compile_failed { cmd; output })
