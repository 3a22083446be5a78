(** Admission control: coalesce concurrent reads into batches.

    Sessions hand their decoded requests to a single batcher thread.
    When the batcher picks up a read it waits one {e admission window}
    for more reads to arrive, then runs the whole leading run of reads
    as one batch — one fan-out with no write inside it, so one snapshot
    epoch — while writes are executed serially in arrival order,
    preserving the WAL discipline.
    The module is generic over the job payload and reply so it can be
    unit-tested with fake executors, independently of the daemon.

    Metrics: [server.batches_total], [server.batch_size] (histogram)
    and [server.admission_wait_ns] (histogram of per-job time from
    enqueue to execution start). *)

type kind =
  | Read  (** batchable: executed against one shared snapshot epoch *)
  | Mutate  (** serialized through the normal write path *)

type ('a, 'r) t

val create :
  ?window_ns:float ->
  ?batch_max:int ->
  run_batch:('a array -> 'r array) ->
  run_write:('a -> 'r) ->
  on_exn:(string -> 'r) ->
  unit ->
  ('a, 'r) t
(** Start the batcher thread. [run_batch] receives the payloads of a
    read batch (arrival order) and must return one reply per payload;
    [run_write] executes a single mutation. If either raises, every
    job in flight gets [on_exn (Printexc.to_string e)] as its reply —
    the batcher itself never dies. [window_ns] defaults to 0 (no
    coalescing delay), [batch_max] to 256. *)

val submit : ('a, 'r) t -> kind -> 'a -> 'r
(** Enqueue a job and block until its reply is ready. Raises
    [Invalid_argument] if the admission layer has been stopped. *)

val stop : ('a, 'r) t -> unit
(** Reject new submissions, drain every queued job, then join the
    batcher thread. Idempotent. *)
