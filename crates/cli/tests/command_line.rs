//! The `sww-cli` binary's command line, run as a user runs it: a bad
//! command line stops it with exit status 2 and one line naming the
//! flag, before any work starts.

use std::io::Read;
use std::process::{Command, Output, Stdio};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Run the binary; a run still going after 30 s (a `serve` that was let
/// through) is killed and fails the test instead of hanging it.
fn sww(args: &str) -> Output {
    let mut child = Command::new(env!("CARGO_BIN_EXE_sww-cli"))
        .args(args.split_whitespace())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("run the sww-cli binary");
    let stdout = drain(child.stdout.take().expect("stdout"));
    let stderr = drain(child.stderr.take().expect("stderr"));
    let deadline = Instant::now() + Duration::from_secs(30);
    let status = loop {
        if let Some(status) = child.try_wait().expect("poll sww-cli") {
            break status;
        }
        if Instant::now() > deadline {
            let _ = child.kill();
            let _ = child.wait();
            panic!("sww-cli {args} was still running after 30 s");
        }
        std::thread::sleep(Duration::from_millis(10));
    };
    Output {
        status,
        stdout: stdout.join().expect("read stdout"),
        stderr: stderr.join().expect("read stderr"),
    }
}

/// Read a pipe to its end on a thread of its own, so a full pipe never
/// stalls the child while [`sww`] waits for it.
fn drain(mut pipe: impl Read + Send + 'static) -> JoinHandle<Vec<u8>> {
    std::thread::spawn(move || {
        let mut bytes = Vec::new();
        pipe.read_to_end(&mut bytes).expect("read a pipe");
        bytes
    })
}

/// Each case names the flag its one stderr line must carry. The plain
/// `serve` cases add `--drain-after 0`, so a build that let one through
/// would exit at once instead of serving until it is killed.
#[test]
fn a_bad_command_line_exits_2_naming_the_flag() {
    for (args, flag) in [
        // An option of another command used to be accepted and ignored:
        // the catalogue printed and the exit status was 0.
        ("stock landscape --nodes 1,x --workers 9", "--nodes"),
        ("stock landscape --workers 9", "--workers"),
        // A misspelt option used to run the command with the default.
        ("serve --replicaton 2 --drain-after 0", "--replicaton"),
        // A malformed value used to run the command with the default.
        ("serve --workers abc --drain-after 0", "--workers"),
        ("serve --drain-after", "--drain-after"),
        // The cluster used to accept these and ignore them: it served
        // h2 and never drained.
        (
            "serve --cluster 2 --transport h3 --drain-after 0",
            "--transport",
        ),
        ("serve --cluster 2 --h3-addr 127.0.0.1:0", "--h3-addr"),
        ("serve --cluster 2 --drain-after 0", "--drain-after"),
    ] {
        let out = sww(args);
        assert_eq!(out.status.code(), Some(2), "sww-cli {args}");
        assert!(out.stdout.is_empty(), "sww-cli {args} ran something");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(stderr.lines().count(), 1, "sww-cli {args}: {stderr}");
        assert!(stderr.contains(flag), "sww-cli {args}: {stderr}");
    }
    // A command that does not exist prints the usage, whatever options
    // come with it.
    let out = sww("serv --addr 127.0.0.1:0");
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.starts_with("usage: sww <serve|"), "{stderr}");
    let stock = sww("stock landscape");
    assert_eq!(stock.status.code(), Some(0));
    assert!(!stock.stdout.is_empty(), "the catalogue prints");
}
