//! The dispatch pool: the worker threads that answer every request line
//! the event loop cannot answer without blocking.
//!
//! One FIFO queue behind one mutex. Idle workers sleep on a condition
//! variable *without* holding the mutex, and each submitted line wakes
//! exactly one of them (`notify_one`), so a hand-off costs one wakeup —
//! not the chain of wakeups a pool of workers blocked in `recv` on a
//! shared `Mutex<Receiver>` pays.
//!
//! A handler panic is contained per line: the worker records a
//! `worker.panic` flight event, reports [`NetEvent::HandlerPanicked`],
//! aborts that connection, and lives on to take the next line.

use crate::server::{Answer, ConnToken, Ctl, NetEvent, NetService};
use std::collections::VecDeque;
use std::net::TcpStream;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};

/// A dispatched line, with the connection's socket so the worker can
/// write the answer itself.
type Job = (ConnToken, String, Arc<TcpStream>);

#[derive(Debug, Default)]
struct Queue {
    lines: VecDeque<Job>,
    closed: bool,
}

/// The shared queue plus the live-worker count `HEALTH` reports.
#[derive(Debug, Default)]
pub(crate) struct Pool {
    queue: Mutex<Queue>,
    ready: Condvar,
    pub(crate) alive: AtomicUsize,
}

impl Pool {
    /// Queues one line and wakes one idle worker. `false` once the pool
    /// is closed: the caller must abort the connection, since no
    /// completion will ever come.
    pub(crate) fn submit(&self, conn: ConnToken, line: String, stream: Arc<TcpStream>) -> bool {
        {
            let mut q = self.queue.lock().unwrap_or_else(PoisonError::into_inner);
            if q.closed {
                return false;
            }
            q.lines.push_back((conn, line, stream));
        }
        self.ready.notify_one();
        true
    }

    /// Stops accepting lines. Workers finish what is already queued,
    /// then exit.
    pub(crate) fn close(&self) {
        self.queue
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .closed = true;
        self.ready.notify_all();
    }

    /// The next queued line, blocking while the queue is empty; `None`
    /// once the pool is closed and drained.
    fn next(&self) -> Option<Job> {
        let mut q = self.queue.lock().unwrap_or_else(PoisonError::into_inner);
        loop {
            if let Some(item) = q.lines.pop_front() {
                return Some(item);
            }
            if q.closed {
                return None;
            }
            q = self.ready.wait(q).unwrap_or_else(PoisonError::into_inner);
        }
    }
}

/// Records a contained handler panic and tells the service, before the
/// connection is aborted (so the client's EOF never races the record).
pub(crate) fn note_panic(
    service: &dyn NetService,
    flight: Option<&poe_obs::FlightRecorder>,
    conn: ConnToken,
) {
    if let Some(f) = flight {
        f.record_for(0, "worker.panic", format!("conn={conn} contained=1"));
    }
    service.on_event(NetEvent::HandlerPanicked);
}

/// One dispatch worker: answer lines until the pool closes. The worker
/// writes its answer to the socket itself, so the client does not wait
/// for the loop to wake up; the loop then writes any rest the socket did
/// not take, counts the response and reads the connection's next line.
pub(crate) fn worker(
    ctl: Arc<Ctl>,
    service: Arc<dyn NetService>,
    flight: Option<Arc<poe_obs::FlightRecorder>>,
) {
    while let Some((conn, line, stream)) = ctl.pool.next() {
        let answer = match catch_unwind(AssertUnwindSafe(|| service.handle(&line))) {
            Ok((line, after)) => {
                let mut answer = Answer::new(line, after);
                answer.write(&stream);
                Some(answer)
            }
            Err(_) => {
                note_panic(service.as_ref(), flight.as_deref(), conn);
                None
            }
        };
        ctl.complete(conn, answer);
    }
    ctl.pool.alive.fetch_sub(1, Ordering::AcqRel);
}
